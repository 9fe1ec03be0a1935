(** Bench regression gate over [BENCH_*.json] trajectory files.

    Each file is one {!Bench_core} document: rows are matched on the
    values of the fields its top-level ["key"] array names (a field a
    row lacks matches as [null]); every ["*_ms"] timing field present
    in both copies of a matched row is compared, and a comparison whose
    increase exceeds the percentage threshold is a regression.  Other
    fields ([qps], tallies, outputs) neither split a match nor gate.
    Rows present on only one side (e.g. a [--quick] grid diffed
    against a full one) are listed but never fail the gate.  Matched
    rows marked ["clamped": true] on either side (more domains or
    clients than the machine has cores) are skipped entirely: their
    timings measure oversubscription noise, not performance. *)

type comparison = {
  key : string;  (** identity fields, rendered ["k=v k=v ..."] *)
  field : string;  (** the timing field, e.g. ["frame_ms"] *)
  old_ms : float;
  new_ms : float;
  delta_pct : float;
      (** [(new - old) / old * 100]; [infinity] when [old = 0] and
          [new > 0] *)
}

type report = {
  compared : comparison list;
  regressions : comparison list;  (** [delta_pct > threshold] *)
  only_old : string list;
  only_new : string list;
}

val diff : threshold:float -> Mj_obs.Json.t -> Mj_obs.Json.t -> report
(** [diff ~threshold old_doc new_doc].
    @raise Failure if either document lacks a ["rows"] or ["key"]
    array. *)

val inflate : pct:float -> Mj_obs.Json.t -> Mj_obs.Json.t
(** Every timing field multiplied by [1 + pct/100] — a synthetic
    regression for exercising the gate ([mjoin bench-diff --inject]). *)

val load : string -> Mj_obs.Json.t
(** Parse a bench JSON file.
    @raise Failure on unreadable or malformed input. *)

val pp_comparison : Format.formatter -> comparison -> unit
val pp_report : threshold:float -> Format.formatter -> report -> unit

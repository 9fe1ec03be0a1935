(** The one bench core: row format, timing, failure rule, JSON and table.

    Every [BENCH_*] leg is the same experiment with different cases: two
    contenders timed head to head, their answers certified equal.  A leg
    module builds its workloads and certificates and returns a {!leg};
    everything else — how a row is timed, which fields identify it,
    when the leg fails, how it is written and printed — lives here.

    {b Row format.}  A row is an ordered list of named fields, each with
    a role: identity ([Key]), wall times ([Ms], named [*_ms]),
    deterministic outputs ([Out]), named boolean certificates
    ([Check]) and run-dependent measures ([Info]: [reps], [speedup],
    throughput, tallies).  A row may also carry unwritten certificates
    ([checks]), a speedup floor and a [clamped] flag.  The JSON row is
    flat: the fields in order, with [speedup_floor] and [speedup_ok]
    right after [speedup] on a floored row and [clamped] last.  The
    document adds a top-level ["key"] array naming the identity fields,
    which {!Bench_diff} matches rows on.

    {b Failure rule.}  A leg fails when any row has a false check
    (written or not), or a floored row's [speedup] is below its floor
    (or missing).  {!report} exits 1 on a failed leg. *)

type field =
  | Key of Mj_obs.Json.t  (** identifies the row across runs and machines *)
  | Ms of float  (** a wall time in milliseconds; the name ends in [_ms] *)
  | Out of Mj_obs.Json.t  (** a deterministic output: value, τ, count *)
  | Check of bool  (** a named certificate, written to the JSON *)
  | Info of Mj_obs.Json.t  (** run-dependent, neither identity nor timing *)

type row = {
  fields : (string * field) list;
  checks : (string * bool) list;  (** certificates printed and gated, not written *)
  floor : float option;  (** the row's [speedup] field must reach it *)
  clamped : bool;
      (** the cell asked for more domains or clients than the machine
          has cores: its timings measure oversubscription, so
          {!Bench_diff} skips it *)
}

val row :
  ?checks:(string * bool) list ->
  ?floor:float ->
  ?clamped:bool ->
  (string * field) list ->
  row

val speedup : float -> float -> string * field
(** [speedup base_ms ms] is the ["speedup"] field [base_ms /. ms]
    ([0.] when [ms] is not positive). *)

type leg = {
  name : string;  (** ["FRAME"]: {!report} writes [BENCH_FRAME.json] *)
  meta : (string * field) list;
      (** document-level fields; every document also records [cores] *)
  rows : row list;
}

(** {1 Timing} *)

val timed : (unit -> 'a) -> float * 'a
(** One call's wall time in ms, with its result. *)

val race :
  reps:int -> (unit -> 'a) -> (unit -> 'b) -> (float * 'a) * (float * 'b)
(** Two contenders' fastest-of-[reps] wall times and last results.
    Their reps interleave, with the heap settled before each segment,
    so noise on a longer timescale than one rep lands on both sides of
    the ratio and neither side sweeps the other's garbage.  Preemption
    and GC pauses only ever add time, so the minimum is the
    least-contaminated estimate.  The floored ratio rows use this. *)

val median_of : reps:int -> (unit -> float * 'a) -> float * 'a
(** One contender that times itself (each call returns its own wall
    time in ms), called [reps] times after one heap compaction: its
    median time and last result.  For a timing with no contender. *)

val race_median :
  reps:int -> (unit -> float * 'a) -> (unit -> float * 'b) ->
  (float * 'a) * (float * 'b)
(** Two contenders that time themselves (each call returns its own
    wall time in ms, e.g. one span inside a larger run), called
    alternately [reps] times after one heap compaction: their median
    times and last results.  For timings too short or too embedded for
    {!race}'s whole-call clock, and for rows whose committed value
    should be the middle run, not the luckiest. *)

(** {1 Verdict and output} *)

val failures : leg -> string list
(** One line per failed check or missed floor; empty on a passing leg. *)

val to_json : leg -> Mj_obs.Json.t
(** The full document: ["experiment"], ["cores"], meta, ["key"],
    ["rows"]. *)

val deterministic_json : leg -> Mj_obs.Json.t
(** {!to_json} without [Ms] and [Info] fields, floors and [clamped]:
    identical across runs, machines and domain counts. *)

val report : leg -> unit
(** Print the meta line, the table and the checks, print the
    [BENCH_JSON] line, write [BENCH_<name>.json], and exit 1 if
    {!failures} is non-empty. *)

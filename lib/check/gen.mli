(** The fuzzing generator DSL.

    Every fuzz case is described by a six-field {!descriptor} — a
    seed plus the structural knobs of a generated workload — and
    {!materialize} turns a descriptor into the actual
    [(database, strategy)] pair deterministically (same descriptor,
    same case, in any process).  Descriptors, not materialized values,
    are what the harness mutates: generation draws one at random,
    shrinking proposes structurally smaller ones, and repro files are
    just descriptors serialized as [key=value] lines.

    The database is {!Mj_serve.Protocol.materialize}'s: a descriptor
    is a {!Mj_serve.Protocol.workload}, the same six fields the CLI's
    generation flags and the serve protocol's query fields name, so
    every case keeps the generators' invariant [R_D ≠ ∅] (a spine tuple
    survives the full join) — which the planted-mutation self-test
    relies on: a lossy join can never hide behind an empty result. *)

open Mj_relation
open Multijoin

type descriptor = Mj_serve.Protocol.workload = {
  shape : string;  (** one of {!shapes} *)
  n : int;         (** relations; ≥ 2, and ≥ 3 for cycles and cliques *)
  rows : int;      (** rows per base relation, ≥ 1 *)
  domain : int;    (** attribute domain size, ≥ 1 *)
  regime : string; (** one of {!regimes} *)
  seed : int;      (** drives both data and strategy randomness *)
}

val shapes : string list
(** The shapes a case draws, in rank order (simplest first): chain,
    star, cycle, clique, random, path, snowflake — every one a
    {!Mj_workload.Dbgen.shapes} name.  [path] (payload-carrying chains)
    and [snowflake] (two-level stars, fan-out 2) are the
    guaranteed-α-acyclic shapes added for the Yannakakis path;
    campaigns that draw them exercise the semijoin program and its
    projections. *)

val regimes : string list
(** The regimes a case draws, in rank order: uniform, skewed,
    superkey — every one a {!Mj_workload.Dbgen.regimes} name. *)

val default : descriptor
(** [seed=0 shape=chain n=2 rows=3 domain=3 regime=uniform] — what
    {!of_string} starts from before applying explicit keys. *)

val normalize : descriptor -> descriptor
(** Clamp every field into its legal range (the ranges documented on
    {!descriptor}, plus [rows ≤ domain] under [superkey]).  Idempotent;
    applied by {!materialize} and {!of_string}, so every descriptor the
    harness handles is in normal form.
    @raise Invalid_argument on a shape outside {!shapes} or a regime
    outside {!regimes}. *)

val materialize : descriptor -> Database.t * Strategy.t
(** The case a descriptor denotes: {!Mj_serve.Protocol.materialize}'s
    database, then a random strategy over its schemes — all drawn from
    one [Random.State] seeded by every field of the descriptor (each
    name by its rank), not by [seed] alone. *)

val generate : Random.State.t -> max_n:int -> descriptor
(** Draw a random (normalized) descriptor with at most [max_n]
    relations. *)

val shrink : descriptor -> descriptor list
(** Structurally smaller candidates, most aggressive first (fewer
    relations, then a simpler shape — chain, or cycle for three or
    more relations — and regime, then fewer rows, smaller domain).
    Every candidate is normalized and strictly smaller in the
    well-founded shrink order, so greedy minimization terminates. *)

val to_string : descriptor -> string
(** [key=value] lines — the repro-file payload. *)

val of_string : string -> (descriptor, string) result
(** Parses {!to_string} output.  Unknown keys are errors (a repro file
    that silently ignores a field would replay a different case);
    blank lines and [#] comments are skipped; missing keys take the
    defaults [seed=0 shape=chain n=2 rows=3 domain=3 regime=uniform]. *)

val parse_lines : string -> ((string * string) list, string) result
(** The raw [key=value] lines of the format (comments and blanks
    skipped) — for formats that extend a descriptor with extra keys,
    like {!Fuzz}'s repro files. *)

val of_pairs :
  (string * string) list -> (descriptor * (string * string) list, string) result
(** Consume the descriptor keys out of a pair list, returning the
    normalized descriptor and the leftover (unknown) pairs in order. *)

val pp : Format.formatter -> descriptor -> unit

(** Plan execution.

    Two modes, matching the two implementation styles Section 1 alludes
    to:

    - {!execute}: materializing — every join node's result is computed
      and kept, each binary step by one hash join (build on the right
      child, probe with the left).  The total number of tuples
      generated equals the paper's [τ] of the underlying strategy
      {e exactly} (the test suite asserts this), so the engine doubles
      as an independent validation of the cost measure.

    - {!execute_pipelined}: for {e linear} strategies only — the spine
      is streamed tuple-at-a-time through hash tables built on the base
      relations, so no intermediate result is ever materialized.  The
      peak memory footprint is the largest base relation, not the
      largest intermediate; this is the pipelining argument for linear
      strategies made concrete. *)

open Mj_relation
open Multijoin

type stats = {
  tuples_scanned : int;     (** tuples read out of base relations *)
  tuples_generated : int;   (** join-output tuples across all steps; equals [τ] *)
  comparisons : int;
      (** value comparisons of the generic-join and top-k backtracker *)
  hash_probes : int;        (** probe lookups (hash joins and semijoins) *)
  max_materialized : int;   (** largest relation or hash table held *)
  result_rows : int;        (** rows of the result relation *)
  per_step : (Scheme.Set.t * int) list;
      (** output cardinality per join node, post-order — comparable to
          {!Multijoin.Cost.step_costs} *)
}

type index_cache
(** Read by nothing: no kernel keeps a base relation's index between
    executions.  Kept only so that code outside [lib/] that names it
    (the type and {!index_cache}) still compiles, like
    [Engine.Config.index_cache]. *)

val index_cache : unit -> index_cache

val execute :
  ?obs:Mj_obs.Obs.sink ->
  Database.t ->
  Physical.t ->
  Relation.t * stats
(** Materializing execution.  [obs] (noop by default) collects a span
    per plan node — attributes [scheme], [rows], and [algo] on joins —
    and receives the execution counters ([exec.tuples_scanned], …) when
    the run completes; with the default sink behaviour is bit-identical
    to an uninstrumented build.
    @raise Invalid_argument if a scanned scheme is missing from the
    database. *)

val execute_digest :
  ?obs:Mj_obs.Obs.sink ->
  Database.t ->
  Physical.t ->
  int64 * stats
(** {!execute}, finished with [Relation.digest] of the result (inside
    a ["serve.certify"] span on [obs]) instead of the relation itself.
    [result_rows] is the root's length, as the plane counts every
    step. *)

val execute_stats :
  ?obs:Mj_obs.Obs.sink -> Database.t -> Physical.t -> stats
(** {!execute}'s stats alone, for callers that only report them: the
    walk, with [result_rows] the root's length; no relation is built
    and no digest taken. *)

type pipeline_stats = {
  emitted_per_stage : int list;
      (** tuples flowing out of each spine position (the τ step costs) *)
  peak_buffer : int;  (** largest hash table built (base relations only) *)
  result_size : int;
}

val execute_pipelined :
  ?obs:Mj_obs.Obs.sink ->
  Database.t ->
  Strategy.t ->
  Relation.t * pipeline_stats
(** Streaming execution of a linear strategy.
    @raise Invalid_argument if the strategy is not linear. *)

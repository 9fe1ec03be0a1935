(** Plan execution.

    Two modes, matching the two implementation styles Section 1 alludes
    to:

    - {!execute}: materializing — every join node's result is computed
      and kept, whatever the algorithm.  The total number of tuples
      generated equals the paper's [τ] of the underlying strategy
      {e exactly} (the test suite asserts this for every algorithm), so
      the engine doubles as an independent validation of the cost
      measure.

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
  comparisons : int;        (** tuple-pair tests (loop and merge joins) *)
  hash_probes : int;        (** probe lookups (hash and index joins) *)
  index_builds : int;       (** base-relation indexes built this execution *)
  index_hits : int;         (** joins served by an already-built index *)
  max_materialized : int;   (** largest relation/hash-table/sort buffer held *)
  result_rows : int;        (** rows of the result relation *)
  per_step : (Scheme.Set.t * int) list;
      (** output cardinality per join node, post-order — comparable to
          {!Multijoin.Cost.step_costs} *)
}

type index_cache
(** Hash indexes over base relations, keyed by (scheme, join
    attributes).  Pass the same cache to several {!execute} calls to
    model pre-existing indices: later runs probe without building. *)

val index_cache : unit -> index_cache

val has_index : index_cache -> Scheme.t -> on:Attr.Set.t -> bool
(** Whether the cache already holds an index of base relation [s] on
    the given join attributes — what the cost-based {!Planner} consults
    to price [Index_nested_loop] as probe-only. *)

val prime_index : index_cache -> Database.t -> Scheme.t -> on:Attr.Set.t -> unit
(** Build (if absent) the index of a base relation on the given join
    attributes, outside any execution — modelling Section 1's
    "existing indices".  Subsequent {!execute} runs through the same
    cache count an [index_hits] instead of an [index_builds].
    @raise Invalid_argument if the scheme is not in the database. *)

val execute :
  ?obs:Mj_obs.Obs.sink ->
  ?cache:index_cache ->
  Database.t ->
  Physical.t ->
  Relation.t * stats
(** Materializing execution.  [cache] (fresh by default) only affects
    [Index_nested_loop] steps.  [obs] (noop by default) collects a span
    per plan node — attributes [scheme], [rows], and [algo] on joins —
    and receives the execution counters ([exec.tuples_scanned], …) when
    the run completes; with the default sink behaviour is bit-identical
    to an uninstrumented build.
    @raise Invalid_argument if a scanned scheme is missing from the
    database or a block size is below 1. *)

val execute_digest :
  ?obs:Mj_obs.Obs.sink ->
  ?cache:index_cache ->
  Database.t ->
  Physical.t ->
  int64 * stats
(** {!execute}, finished with [Relation.digest] of the result (inside
    a ["serve.certify"] span on [obs]) instead of the relation itself.
    [result_rows] is the root's length, as the plane counts every
    step. *)

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

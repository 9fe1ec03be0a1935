(** Pipelined execution of linear strategies (Section 1's motivation).

    {!execute_pipelined} streams the spine of a {e linear} strategy
    tuple-at-a-time through hash tables built on the base relations, so
    no intermediate result is ever materialized.  The peak memory
    footprint is the largest base relation, not the largest
    intermediate; this is the pipelining argument for linear strategies
    made concrete.  It runs on the paper's algebra ([Relation],
    [Tuple]); every other execution runs on {!Frame_engine}. *)

open Mj_relation
open Multijoin

type index_cache
(** Read by nothing: no kernel keeps a base relation's index between
    executions.  Kept only so that code outside [lib/] that names it
    (the type and {!index_cache}) still compiles, like
    [Engine.Config.index_cache]. *)

val index_cache : unit -> index_cache

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

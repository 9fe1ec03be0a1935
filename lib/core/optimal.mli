(** Exact τ-optimum strategies by dynamic programming.

    For every subspace of {!Enumerate.subspace}, finds a strategy of
    minimum τ together with its cost, by DP over sub-databases: the cost
    of a step depends only on the scheme set it produces, so
    [best(D') = τ(R_{D'}) + min over allowed partitions (best(D1) + best(D2))].

    The DP runs against a cardinality oracle; pass
    {!Cost.cardinality_oracle} for exact (materialized) τ — the ground
    truth used by the theorem validators — or an estimator from
    [Mj_optimizer] to model a real optimizer. *)

open Mj_relation
open Mj_hypergraph

type result = Subset_dp.result = {
  strategy : Strategy.t;
  cost : int;
}

val optimum_with_oracle :
  ?subspace:Enumerate.subspace ->
  oracle:(Scheme.Set.t -> int) ->
  Hypergraph.t ->
  result option
(** [optimum_with_oracle ~oracle d] is a cheapest strategy for [d] in
    the subspace (default [All]), or [None] when the subspace is empty
    (only possible for [Linear_cp_free] on unconnected schemes).  Ties
    are broken arbitrarily but deterministically. *)

val optimum_by :
  ?obs:Mj_obs.Obs.sink ->
  combine:Subset_dp.combine ->
  ?subspace:Enumerate.subspace ->
  oracle:(Scheme.Set.t -> int) ->
  Hypergraph.t ->
  result option
(** The same search under any combine rule: [Sum] is
    {!optimum_with_oracle}, [Max] the makespan optimum of
    [Mj_engine.Parallel], [Priced] a detailed cost model's optimum
    ([Mj_optimizer.Costmodel]).  [obs] receives the core's [opt.*]
    search-effort counters. *)

val optimum : ?subspace:Enumerate.subspace -> Database.t -> result option
(** Exact τ-optimum against the materialized cardinalities of the
    database. *)

val optimum_cached : ?subspace:Enumerate.subspace -> Cost.Cache.t -> result option
(** Same, against a caller-supplied shared {!Cost.Cache}: the DP is
    memoized directly on the cache's bitmasks, and repeated calls (or
    calls interleaved with the condition checkers) reuse every
    sub-database cardinality already materialized. *)

val optimum_exn : ?subspace:Enumerate.subspace -> Database.t -> result
(** @raise Invalid_argument when the subspace is empty. *)

val linear_optima_cp_free : Cost.Cache.t -> bool
(** Does every τ-optimal linear strategy of the cache's database avoid
    Cartesian products?  Theorem 1's conclusion, decided on the linear
    DP table without enumerating a strategy: some optimal linear
    strategy of a sub-database uses a product iff one of its tight
    linear splits (one whose part's optimum plus the sub-database's
    cardinality is its optimum) is unlinked or has a part for which the
    same holds.  Equal to [List.for_all (not uses_cartesian)] over
    {!all_optima_cached}[ ~subspace:Linear]. *)

val all_optima : ?subspace:Enumerate.subspace -> Database.t -> result list
(** {e Every} cheapest strategy of the subspace (by streaming the
    enumeration — small databases only).  The reference enumerator the
    DP decisions, such as {!linear_optima_cp_free}, are tested
    against. *)

val all_optima_cached :
  ?subspace:Enumerate.subspace -> Cost.Cache.t -> result list
(** Same, costing strategies against a shared {!Cost.Cache}. *)

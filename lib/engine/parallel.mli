(** A makespan model for parallel join evaluation.

    The paper cites parallel pipelined join machines ([16], GAMMA [9]) as
    a reason to keep the cost measure technology-neutral.  This module
    quantifies the tension that choice hides: with unbounded workers and
    per-step work equal to the tuples generated, independent subtrees run
    concurrently, so a strategy's {e makespan} is its critical path

    [makespan(leaf) = 0],
    [makespan(s1 ⋈ s2) = max(makespan(s1), makespan(s2)) + τ(step)]

    while τ itself is total work.  A bushy strategy can trade a little
    total work for a much shorter critical path — so the linear optimum
    certified by Theorem 3 under C3 is {e not} in general the makespan
    optimum, which the PAR experiment measures. *)

open Mj_relation
open Mj_hypergraph
open Multijoin

val makespan : Database.t -> Strategy.t -> int
(** Critical-path cost with exact (materialized) step sizes. *)

val makespan_oracle : (Scheme.Set.t -> int) -> Strategy.t -> int
(** The same against a cardinality oracle. *)

val optimum_makespan :
  ?obs:Mj_obs.Obs.sink ->
  ?subspace:Enumerate.subspace ->
  oracle:(Scheme.Set.t -> int) ->
  Hypergraph.t ->
  Optimal.result option
(** Minimum-makespan strategy in the subspace (default [All]) by
    {!Optimal.optimum_by} under the [Max] rule ([Optimal.result.cost]
    holds the makespan); [None] exactly when the subspace is empty.
    [obs] records a [makespan-dp] span plus the [opt.pairs_inspected],
    [opt.dp_entries], [opt.plans_pruned] and [opt.estimate_calls]
    search-effort counters. *)

(** Selinger-style left-deep (linear) dynamic programming.

    The System R search space: left-deep join orders, with Cartesian
    products avoided.  Three policies mirror real optimizers:

    - [`Never]: only linked extensions — the strategy space of
      [Multijoin.Enumerate.Linear_cp_free] (System R,
      Office-by-Example);
    - [`When_needed]: a Cartesian extension is considered only when no
      linked relation remains for that subset (how optimizers handle
      unconnected queries);
    - [`Always]: every extension — the full linear space (GAMMA). *)

open Mj_hypergraph
open Multijoin

type cp_policy = [ `Never | `When_needed | `Always ]

val plan :
  ?obs:Mj_obs.Obs.sink ->
  ?cp:cp_policy ->
  oracle:Estimate.oracle ->
  Hypergraph.t ->
  Optimal.result option
(** Cheapest left-deep plan under the policy (default [`When_needed]).
    [None] only under [`Never] on schemes admitting no product-free
    linear order.  [obs] records a [selinger] span and the
    [opt.pairs_inspected] / [opt.dp_entries] / [opt.plans_pruned] /
    [opt.estimate_calls] counters. *)

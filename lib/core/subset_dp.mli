(** The subset-DP core.

    Every exact optimizer here solves the paper's recurrence over
    sub-databases, encoded as bitmasks over a set of {e units}
    (relations, components or named sets):

    [best(D') = card(D') + min over allowed splits (best(D1) ⊕ best(D2))]

    with [⊕] the sum for τ and the max for the critical-path makespan;
    a detailed cost model instead charges each split a price of the
    three cardinalities it reads.
    This module owns everything that recurrence needs except the split
    order: the plan table, the leaves, the per-subset cardinality memo,
    the combine rule, the tie rule, the [opt.*] search-effort counters
    and one rebuild of the winning tree from the stored splits.  A
    driver contributes only its split order, either top-down ({!create}
    and {!solve}: memoized recursion over a split iterator, the table
    holding only the masks reached) or bottom-up ({!drive} and
    {!offer}: each union offered after both of its parts are final,
    over a flat table of all [2^n] masks). *)

open Mj_relation
open Mj_hypergraph

type combine =
  | Sum  (** τ: total work *)
  | Max  (** makespan: the critical path *)
  | Priced of (left:int -> right:int -> out:int -> int)
      (** a per-split price: a split of [D'] into [D1] and [D2] costs
          [best(D1) + best(D2) + price ~left:card(D1) ~right:card(D2)
          ~out:card(D')] *)

type result = {
  strategy : Strategy.t;
  cost : int;
}

type t
(** A plan table. *)

val create :
  ?combine:combine -> ?leaf_cost:(int -> int) -> units:int -> (int -> int) -> t
(** [create ~units card] is a table over masks of [units] units, holding
    only the masks reached, whose singletons are leaves of cost
    [leaf_cost i] (default [0]) for unit [i].  [card m] prices the
    sub-database [m]; it is called at most once per mask, on the first
    split of [m] whose two parts both have plans or, under [Priced], on
    the first such split that has [m] as a part.  [combine] defaults to
    [Sum]. *)

val offer : t -> usable:bool -> int -> int -> unit
(** [offer dp ~usable m1 m2] inspects the split of [m1 lor m2] into the
    left part [m1] and the right part [m2], counting one inspected pair.
    When [usable] and both parts have plans, the candidate costs
    [combine (cost m1) (cost m2) + card (m1 lor m2)] (under [Priced],
    the sum plus the split's price); it replaces the
    union's plan only when strictly cheaper, so the first of several
    equal-cost splits wins. *)

val solve : t -> splits:(int -> (int -> int -> unit) -> unit) -> int -> unit
(** [solve dp ~splits m] fills the plan of [m] top-down: [splits m f]
    calls [f m1 m2] for each allowed split of [m], in the driver's
    order; both parts are solved before the split is offered.  Masks
    already solved are not revisited. *)

val mem : t -> int -> bool
(** Does the mask have a plan? *)

val cost : t -> int -> int option

val build : t -> leaf:(int -> 'a) -> node:('a -> 'a -> 'a) -> int -> 'a option
(** The winning tree of a mask, rebuilt once from the stored splits;
    [leaf i] stands for unit [i]. *)

val result : t -> Bitdb.t -> int -> result option
(** {!build} over relation units: the winning strategy and its cost. *)

val finish : t -> Mj_obs.Obs.sink -> unit
(** Adds the table's [opt.pairs_inspected], [opt.dp_entries] (masks
    given a plan, leaves excluded), [opt.plans_pruned] (usable
    candidates not strictly cheaper) and [opt.estimate_calls] (calls
    to [card]) to the sink. *)

val iter_anchored_splits : int -> (int -> int -> unit) -> unit
(** Every unordered split of a mask once: the lowest unit anchored in
    the left part, left parts in decreasing numeric order. *)

val check_size : Bitdb.t -> unit
(** The one relation cap of every table that is a flat array over all
    [2^n] masks.
    @raise Invalid_argument ["subset DP: too many relations (max 22)"]
    beyond 22 relations. *)

val drive :
  ?obs:Mj_obs.Obs.sink ->
  span:string ->
  oracle:(Scheme.Set.t -> int) ->
  Hypergraph.t ->
  (Bitdb.t -> t -> unit) ->
  result option * int
(** [drive ~span ~oracle d f] runs a bottom-up driver [f] over the
    relations of [d] inside a [span] and returns the plan of the whole
    scheme and the number of inspected pairs.  The table's counters
    are added to [obs].
    Its table is a flat array over all [2^n] masks, hence the one
    relation cap of the bottom-up drivers.
    @raise Invalid_argument ["subset DP: too many relations (max 22)"]
    beyond 22 relations. *)

val strategy_cost : combine -> (Scheme.Set.t -> int) -> Strategy.t -> int
(** The cost of a given strategy under the combine rule: every step
    priced by the oracle on its scheme set. *)

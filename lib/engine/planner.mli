(** Lowering logical strategies to physical plans.

    A {!Multijoin.Strategy.t} fixes the join {e order} — the object the
    paper's theorems rank by τ.  This module decides which plan node
    runs it.  Every binary step is a hash join: τ counts the tuples a
    strategy generates, so a per-step algorithm could change the time
    but never the result, τ or the step log.  The policies differ only
    in when a strategy leaves the binary form:

    - [Hash_all] — every step a binary hash join;
    - [Wcoj] — a cyclic strategy becomes one n-ary generic join;
    - [Yannakakis] — an α-acyclic strategy becomes a semijoin program
      over a cost-chosen join tree, a cyclic one goes to the [Wcoj]
      arm.

    Determinism: lowering is a pure function of the (database,
    strategy) pair — same inputs, same plan, on every run and every
    domain count. *)

open Mj_relation
open Mj_hypergraph
open Multijoin

type policy =
  | Hash_all  (** every step a binary hash join *)
  | Wcoj
      (** worst-case-optimal: cyclic strategies collapse into one
          {!Physical.Generic_join} node over the whole scheme set;
          acyclic ones keep their [Hash_all] plan *)
  | Yannakakis
      (** acyclic-first: α-acyclic strategies (two or more relations)
          lower to a {!Physical.Semijoin_program} over the cost-best
          rooted join tree; cyclic ones lower as under [Wcoj] — every
          query routes to the algorithm whose worst case matches its
          structure *)

val policy_name : policy -> string
(** ["hash"], ["wcoj"] or ["yann"]. *)

val policy_of_string : string -> policy option
(** Parses the [--policy] flag values ["hash"], ["wcoj"] and ["yann"]
    (case-insensitive).  ["cost"] parses as an alias of [Hash_all]. *)

val is_cyclic : Scheme.Set.t -> bool
(** Does the [Wcoj] policy emit a generic join for this scheme set?
    True iff it has at least three relations and its hypergraph is not
    α-acyclic (GYO).  On α-acyclic schemes binary plans are already
    worst-case optimal (Yannakakis), so the node is reserved for the
    cyclic case where the AGM bound separates the two: the generic
    join's worst case is [AGM(D)] while every binary plan additionally
    pays a strictly positive AGM term per internal step — polynomially
    larger on cyclic schemes (triangle: [N^{3/2}] vs [N²]). *)

val elimination_order : Scheme.Set.t -> Attr.t list
(** The attribute-binding order of an emitted {!Physical.Generic_join}:
    attributes shared by more relations first (so the earliest levels
    intersect the most iterators), ties by attribute order.  A pure
    function of the scheme set — plans are reproducible across runs,
    planes and domain counts. *)

val yann_tree :
  ?oracle:(Scheme.Set.t -> int) ->
  Database.t ->
  Scheme.Set.t ->
  Jointree.rooted option
(** The rooted join tree the [Yannakakis] policy would run: [None] when
    the scheme set is cyclic (or empty); otherwise the cost-optimal
    root/orientation — every join tree ([Jointree.all_join_trees]) when
    the set has at most 6 relations, GYO's ear tree beyond, each rooted
    at every scheme, priced as the sum of catalog-estimated
    cardinalities of the join phase's left-deep prefixes (semijoins are
    free under the paper's τ), first strict minimum in a fixed
    enumeration order.  What [mjoin explain] prints as the chosen root
    and semijoin order. *)

val lower :
  ?policy:policy ->
  ?oracle:(Scheme.Set.t -> int) ->
  Database.t ->
  Strategy.t ->
  Physical.t
(** [lower db s] turns [s] into a plan.  [policy] defaults to
    [Hash_all], which is {!Physical.of_strategy}.  Under [Wcoj], a
    strategy whose scheme set {!is_cyclic} lowers to a single
    {!Physical.Generic_join} over the whole set (its join order is
    discarded — the node is n-ary) with {!elimination_order}; otherwise
    the [Hash_all] plan applies unchanged.  Under [Yannakakis], an
    α-acyclic strategy over at least two relations lowers to
    [Physical.Semijoin_program (yann_tree …)], a cyclic one to the
    [Wcoj] arm's generic join (the ear decomposition that found no
    join tree already decided cyclicity, so it runs once), and a
    single relation to its [Hash_all] plan.  [oracle] overrides the
    catalog estimator that {!yann_tree} prices join trees with. *)

val lower_ranked :
  ?oracle:(Scheme.Set.t -> int) ->
  Database.t ->
  Strategy.t ->
  k:int ->
  Physical.t option
(** The [mjoin topk] lowering: [Physical.Ranked_enumerate] over
    {!yann_tree} when the strategy's scheme set is α-acyclic, [None]
    when it is cyclic (ranked enumeration streams out of a reduced join
    tree, which a cyclic query does not have). *)

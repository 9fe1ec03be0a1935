(** Enumeration and counting of strategy subspaces.

    The introduction counts 15 orderings for four relations — 3 bushy
    shapes plus 12 linear ones — identifying [S1 ⋈ S2] with [S2 ⋈ S1].
    All enumerations here use that identification: each step's unordered
    child pair is generated once.

    The four subspaces mirror the optimizers cited in Section 1: the
    full space, linear strategies (GAMMA), strategies avoiding Cartesian
    products (INGRES, Starburst), and linear strategies avoiding
    Cartesian products (System R, Office-by-Example).

    Each subspace is one fold ({!fold_strategies}): one memoized split
    recursion serves the full space and each component's connected
    CP-free space, one left-deep order fold the linear spaces.  The
    list functions are those folds collected, in the same order. *)

open Mj_hypergraph

type subspace =
  | All
  | Linear
  | Cp_free          (** avoids Cartesian products, per the paper's definition *)
  | Linear_cp_free

val pp_subspace : Format.formatter -> subspace -> unit

val all : Hypergraph.t -> Strategy.t list
(** Every strategy for the database scheme.  [(2k-3)!!] of them — use
    only for small [k].
    @raise Invalid_argument on an empty scheme. *)

val linear : Hypergraph.t -> Strategy.t list
(** Every linear strategy ([k!/2] for [k ≥ 2]). *)

val cp_free : Hypergraph.t -> Strategy.t list
(** Every strategy that avoids Cartesian products: within each component
    no step uses a product, components are evaluated individually and
    then combined (by the unavoidable [comp(D) - 1] product steps) in
    every possible tree shape.  Empty iff no such strategy exists (never,
    in fact: every database scheme admits one). *)

val linear_cp_free : Hypergraph.t -> Strategy.t list
(** Linear strategies that avoid Cartesian products.  May be empty for
    unconnected schemes (a non-first component of two or more relations
    can never appear as a node of a linear strategy). *)

val enumerate : subspace -> Hypergraph.t -> Strategy.t list

val fold_all : Hypergraph.t -> init:'a -> f:('a -> Strategy.t -> 'a) -> 'a
(** Fold over the full space without building the list. *)

val fold_strategies :
  subspace -> Hypergraph.t -> init:'a -> f:('a -> Strategy.t -> 'a) -> 'a
(** Fold over a subspace without materializing the top-level list
    (sub-database lists are memoized in a table private to the call).
    [enumerate subspace d] is this fold collected, so the two visit the
    same strategies in the same order.
    @raise Invalid_argument on an empty scheme. *)

val count_all : int -> int
(** [(2k-3)!! = 1·3·5···(2k-3)]; [count_all 4 = 15]. *)

val count_linear : int -> int
(** [k!/2] for [k ≥ 2], [1] for [k = 1]; [count_linear 4 = 12]. *)

val count_cp_free : Hypergraph.t -> int
(** Counted by dynamic programming over connected subsets (no
    materialization). *)

val count_linear_cp_free : Hypergraph.t -> int

val count : subspace -> Hypergraph.t -> int
(** Counts the subspace; [All] and [Linear] use the closed forms. *)

val random_strategy : rng:Random.State.t -> Hypergraph.t -> Strategy.t
(** A random strategy built by repeatedly joining two uniformly chosen
    roots of the current forest.  Not uniform over the space, but
    supported on all of it; used by the statistical experiments. *)

(** Condition C4 under the Section 5 redefinition of connectedness.

    For α-acyclic schemes, Section 5 redefines a subset [E ⊆ D] to be
    {e connected} iff [E] induces a subtree of some join tree for [D],
    and [E1] {e linked} to [E2] iff [F1 ∪ F2] is connected for some
    non-empty [F1 ⊆ E1], [F2 ⊆ E2] — two subsets may then share an
    attribute without being linked.  With these definitions, every
    α-acyclic pairwise-consistent database satisfies C4 (via Yannakakis's
    lossless-connected-subset theorem and Goodman–Shmueli's
    [R_D[R] = R]).

    This module checks that statement literally.  It enumerates all join
    trees, so it is limited to small schemes (≤ 8 relations). *)

open Mj_relation

type witness = {
  j1 : Mj_hypergraph.Hypergraph.t;
  j2 : Mj_hypergraph.Hypergraph.t;
  tau_join : int;
  tau_1 : int;
  tau_2 : int;
}

val violations_c4 : ?limit:int -> Database.t -> witness list
(** Pairs of disjoint, join-tree-connected, join-tree-linked subsets
    whose join is smaller than one side.
    @raise Invalid_argument if the scheme is not α-acyclic or has more
    than 8 relations. *)

val holds_c4 : Database.t -> bool

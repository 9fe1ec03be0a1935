(** Join trees (qual trees) and the Section 5 redefinition of
    connectedness.

    A join tree for [D] is a tree whose nodes are the schemes of [D] such
    that for every attribute [A], the schemes containing [A] induce a
    connected subtree (equivalently: for any two schemes, every scheme on
    the tree path between them contains their intersection).  Section 5
    redefines a subset [E ⊆ D] to be {e connected} iff some join tree for
    [D] has [E] inducing a subtree. *)

open Mj_relation

type tree = (Scheme.t * Scheme.t) list
(** An edge list over the schemes of a database scheme. *)

val is_join_tree : Hypergraph.t -> tree -> bool
(** [is_join_tree d edges] checks that [edges] forms a spanning tree of
    [d]'s schemes satisfying the running-intersection property. *)

val all_join_trees : Hypergraph.t -> tree list
(** Every join tree of [d]: none iff [d] is not α-acyclic, one empty
    tree for a singleton, and no size cap (though [k] relations can have
    [k^(k-2)] join trees).  A spanning tree's weight [Σ_{(u,v)} |u ∩ v|]
    counts, per attribute [a], its edges inside [D_a], the schemes
    holding [a]; these form a forest on [D_a], so the weight is at most
    [W* = Σ_a (|D_a| - 1)], with equality iff every [D_a] induces a
    subtree.  So the join trees are the spanning trees of weight [W*],
    found by a pruned search over the scheme pairs, heaviest first.
    Order, which callers' tie rules read: ascending Prüfer code (nodes
    in [Scheme.compare] order) compared from its last entry, edges as
    that code's decoder lists them. *)

val connected_in_some_join_tree : Hypergraph.t -> Scheme.Set.t -> bool
(** The Section 5 notion: does some join tree for [d] have the subset
    inducing a subtree?  The definitional reference.
    @raise Invalid_argument if the subset is not included in [d]. *)

val linked_in_join_tree_sense : Hypergraph.t -> Scheme.Set.t -> Scheme.Set.t -> bool
(** Section 5: [E1] is linked to [E2] iff [F1 ∪ F2] is connected (in the
    join-tree sense) for some non-empty [F1 ⊆ E1] and [F2 ⊆ E2]. *)

(** {1 Rooted orientations}

    Yannakakis's algorithm runs over a join tree {e oriented} at a
    chosen root: semijoins sweep leaf-to-root then root-to-leaf, and the
    final joins accumulate root-outward.  A [rooted] value is that
    orientation, in the representation the engine's physical plans
    carry. *)

type rooted = {
  root : Scheme.t;
  elims : (Scheme.t * Scheme.t) list;
      (** [(node, parent)] edges in leaf-to-root elimination order:
          every node appears after all its children, so a left fold is
          the upward semijoin sweep and a right fold the downward one *)
}

val root_at : tree -> Scheme.t -> rooted
(** Orient [edges] at [root] by BFS in sorted-neighbour order — a
    deterministic function of the pair, so lowered plans are
    reproducible.  The root must be a node of the tree (or the sole
    scheme of a singleton database, with [edges = []]). *)

val join_order : rooted -> Scheme.t list
(** Root-outward node sequence (the reverse elimination order): each
    scheme shares attributes with its parent, which precedes it, so the
    left-deep join over this order never degenerates to a Cartesian
    product. *)

(** GYO reduction and α-acyclicity.

    The Graham / Yu–Özsoyoğlu reduction repeatedly (1) deletes an
    attribute that occurs in exactly one scheme and (2) deletes a scheme
    contained in another.  A database scheme is α-acyclic (Fagin [7]) iff
    the reduction empties it.  Ear decomposition additionally yields a
    join tree (qual tree [8]). *)

open Mj_relation

val reduce : Hypergraph.t -> Scheme.Set.t
(** The GYO fixpoint of [d].  Note the result may contain schemes with
    attributes deleted, so it is not a sub-{e set} of [d]; it is empty or
    a single scheme iff [d] is α-acyclic. *)

val is_alpha_acyclic : Hypergraph.t -> bool

val is_alpha_acyclic_bits : Hypergraph.t -> bool
(** Same verdict as {!is_alpha_acyclic}, computed on attribute bitmasks
    (one int mask per scheme, both reduction rules as word operations) —
    the classifier the planner runs on every incoming query.  Falls back
    to the set implementation when the attribute universe is wider than
    a machine word. *)

val ear_decomposition : Hypergraph.t -> (Scheme.t * Scheme.t) list option
(** [ear_decomposition d] returns, for an α-acyclic connected [d] with at
    least two schemes, a list of [(ear, parent)] pairs in removal order —
    the edges of a join tree for [d].  Returns [None] if [d] is cyclic.
    For a singleton [d] the list is empty. *)

val rooted_ear_tree : Hypergraph.t -> Jointree.rooted option
(** GYO's ear tree, rooted where the reduction ends: [root] is the last
    surviving scheme and [elims] are the {!ear_decomposition} pairs in
    removal order, so {!Jointree.join_order} is the root followed by the
    ears in reverse removal order — Yannakakis's own join order.  Run it
    as a [Physical.Semijoin_program].  [None] if [d] is cyclic or
    empty. *)

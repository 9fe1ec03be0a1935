(** GYO reduction and α-acyclicity.

    The Graham / Yu–Özsoyoğlu reduction repeatedly removes an {e ear}: a
    scheme whose attributes shared with the rest all lie inside one
    other scheme, its witness.  A database scheme is α-acyclic (Fagin
    [7]) iff the reduction leaves at most one scheme, and the
    (ear, witness) pairs are the edges of a join tree (qual tree [8]).
    Each step is one {!Mj_relation.Ear.find} on attribute bitsets, so
    any number of schemes and attributes is handled. *)

open Mj_relation

val is_alpha_acyclic : Hypergraph.t -> bool
(** [ear_decomposition d <> None]. *)

val ear_decomposition : Hypergraph.t -> (Scheme.t * Scheme.t) list option
(** [ear_decomposition d] returns, for an α-acyclic [d] with at least
    two schemes, a list of [(ear, parent)] pairs in removal order — the
    edges of a join tree for [d] (a scheme sharing nothing with the
    rest is an ear of any witness).  Each pair is the lowest live ear
    in [Scheme.compare] order and its lowest witness.  Returns [None]
    if [d] is cyclic.  For a singleton or empty [d] the list is
    empty. *)

val rooted_ear_tree : Hypergraph.t -> Jointree.rooted option
(** GYO's ear tree, rooted where the reduction ends: [root] is the last
    surviving scheme and [elims] are the {!ear_decomposition} pairs in
    removal order, so {!Jointree.join_order} is the root followed by the
    ears in reverse removal order — Yannakakis's own join order.  Run it
    as a [Physical.Semijoin_program].  [None] if [d] is cyclic or
    empty. *)

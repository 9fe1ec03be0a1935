(** Pairwise and global consistency; semijoin reduction.

    Section 5 uses Beeri–Bernstein-style consistency: two relations are
    consistent iff they agree on the projection onto their common
    attributes, and a database is pairwise consistent (semijoin reduced
    [8]) iff every pair of its relations is consistent.  The full reducer
    of Bernstein and Chiu [3] removes dangling tuples by a fixpoint of
    semijoins; for α-acyclic databases the result is pairwise — indeed
    globally — consistent. *)

val consistent_pair : Relation.t -> Relation.t -> bool
(** [consistent_pair r r'] is the paper's consistency test
    [R[R∩R'] = R'[R∩R']].  Relations with disjoint schemes are consistent
    unless exactly one of them is empty. *)

val pairwise_consistent : Database.t -> bool
(** Every pair of relations is consistent. *)

val semijoin_reduce : Database.t -> Database.t
(** The naive full reducer: repeatedly replace each state [R] by
    [R ⋉ R'] for every other state [R'] sharing an attribute with it,
    until no state shrinks.  Always terminates; for {e connected}
    α-acyclic schemes the result is the full reduction (every remaining
    tuple participates in the global join).  Attribute-disjoint pairs
    are skipped, so on an unconnected scheme an empty component leaves
    the other components' tuples in place although the global join is
    empty. *)

val globally_consistent : Database.t -> bool
(** Every state equals the projection of the global join onto its scheme
    — the strongest consistency notion ([R_D[R] = R] for all relations,
    as in Goodman–Shmueli [8]).  Evaluates the global join, so intended
    for small databases and tests. *)

val dangling_tuples : Database.t -> (Scheme.t * int) list
(** For each relation, the number of tuples that do not appear in the
    projection of the global join — a diagnostic used by the Yannakakis
    experiments. *)

(** Fagin's degrees of acyclicity.

    Section 5 shows that γ-acyclic pairwise-consistent databases satisfy
    condition [C4].  This module implements the three classic degrees [7]:

    - {e α-acyclic}: the GYO reduction empties the scheme
      ({!Gyo.is_alpha_acyclic});
    - {e β-acyclic}: every subset of the schemes is α-acyclic,
      equivalently there is no β-cycle;
    - {e γ-acyclic}: there is no γ-cycle.

    γ-acyclic ⇒ β-acyclic ⇒ α-acyclic, and both implications are strict
    (e.g. [{AB, ABC, BC}] is β-acyclic but not γ-acyclic; the triangle
    [{AB, BC, AC}] plus [ABC] is α-acyclic but not β-acyclic).

    The cycle searches are exponential in [|D|]; they are meant for the
    small schemes used by the condition checkers and tests. *)

open Mj_relation

val is_beta_acyclic : Hypergraph.t -> bool
(** Checked by testing every non-empty subset of schemes for
    α-acyclicity.
    @raise Invalid_argument when [|D| > 15]. *)

type cycle = (Scheme.t * Attr.t) list
(** A cycle [(S1, x1); (S2, x2); ...; (Sm, xm)] standing for the sequence
    [(S1, x1, S2, x2, ..., Sm, xm, S1)]. *)

val find_gamma_cycle : Hypergraph.t -> cycle option
(** A γ-cycle of length m ≥ 3: distinct schemes [Si], distinct attributes
    [xi], [xi ∈ Si ∩ Si+1] (cyclically), and for [i < m] the attribute
    [xi] occurs in no other scheme {e of the sequence}.  The last
    attribute [xm] is exempt from the exclusivity requirement. *)

val is_gamma_acyclic : Hypergraph.t -> bool

val find_beta_cycle : Hypergraph.t -> cycle option
(** A β-cycle: as a γ-cycle but with the exclusivity requirement imposed
    on every attribute including the last. *)

val is_berge_acyclic : Hypergraph.t -> bool
(** The strongest degree: the bipartite incidence graph (attributes vs
    schemes) has no cycle — equivalently no two schemes share two
    attributes and the intersection graph is a forest once multi-shared
    attributes are ruled out.  Berge-acyclic ⇒ γ-acyclic, strictly
    ([{AB, ABC}] is γ-acyclic but Berge-cyclic). *)

(** Fractional edge covers and the AGM output bound, on {!Bitdb} masks.

    Atserias–Grohe–Marx: for any feasible fractional edge cover
    [x] of the attribute universe of a database scheme — weights
    [xᵢ ∈ [0,1]] per relation with [Σ_{i ∋ a} xᵢ ≥ 1] for every
    attribute [a] — the join output is at most [Π cardᵢ^xᵢ].  The
    tightest such bound prices the generic-join operator: on cyclic
    schemes it is polynomially below what any binary plan can guarantee.

    The LP is solved by enumerating the vertices of the cover polytope.
    By the half-integrality theorem those are the points of
    [{0, ½, 1}^k] whenever every attribute occurs in at most two
    schemes — true of every {!Querygraph} shape — so the enumeration
    (3^k points, k ≤ {!max_lp_relations}) is exact there.  On denser
    hypergraphs every enumerated point is still feasible, so the result
    upper-bounds the LP optimum and the AGM bound it induces remains a
    valid output bound. *)

val max_lp_relations : int
(** Largest sub-database the vertex enumeration prices (8). *)

val constraint_masks : Bitdb.t -> int -> int list
(** The deduplicated covering constraints of the sub-database [mask]:
    for each attribute of its universe, the incidence mask of the
    schemes (within [mask]) carrying it, first-occurrence order. *)

val fractional_cover :
  Bitdb.t -> int -> weight:(int -> float) -> (float array * float) option
(** [fractional_cover u mask ~weight] minimizes [Σ xᵢ·weight i] over
    the half-integral points of the cover polytope of [mask].  Returns
    the cover (indexed like [u], zero outside [mask]) and its total
    weight; [None] when the mask is empty or has more than
    {!max_lp_relations} relations. *)

val agm_bound : Bitdb.t -> int -> card:(int -> int) -> float option
(** [agm_bound u mask ~card] is the AGM output bound [Π cardᵢ^xᵢ] under
    the minimum log-cardinality-weighted cover — an upper bound on the
    cardinality of the join of the sub-database.  [None] under the same
    conditions as {!fractional_cover}; [0.0] if some relation is
    empty. *)

(** The bitmask subset kernel.

    Every exact optimizer, condition checker and theorem validator in
    this system bottoms out in the same primitive: "enumerate or
    partition sub-databases of [D] and ask an oracle for each".  This
    module gives that primitive a machine representation: the schemes of
    a database scheme [D] are indexed in {!Mj_relation.Scheme.compare}
    order, a sub-database is an [int] bitmask over those indices, and
    attribute adjacency ("which schemes share an attribute with scheme
    [i]?") is precomputed once per universe.  All connectivity
    vocabulary of the paper's Section 2 — linked, connected,
    components — then runs in [O(k)] word operations per query, and
    subset/partition enumeration walks masks instead of building
    [Scheme.Set] values.

    The kernel is an internal representation: the [Scheme.Set] API of
    {!Hypergraph} remains the public boundary, with conversion at the
    edges ({!mask_of_set} / {!set_of_mask}).  Enumeration orders are
    specified exactly: the subset DP keeps the first of several
    equal-cost splits, so they are observable in its winners. *)

open Mj_relation

type t = {
  nodes : Scheme.t array;  (** the universe, sorted by [Scheme.compare] *)
  n : int;
  adj : int array;
      (** [adj.(i)]: mask of schemes [j <> i] sharing an attribute with [i] *)
  full : int;  (** [(1 lsl n) - 1] *)
}
(** An indexed universe.  Bit [i] of a mask stands for [nodes.(i)];
    because [nodes] is sorted, the lowest set bit of a mask is its
    minimum scheme. *)

val make : Scheme.Set.t -> t
(** @raise Invalid_argument for more than 62 relations (bitmask width). *)

val full : t -> int
val size : t -> int
val scheme : t -> int -> Scheme.t

val index : t -> Scheme.t -> int
(** Binary search over the sorted universe.  @raise Not_found when the
    scheme is not part of the universe. *)

val bit : t -> Scheme.t -> int
(** [1 lsl index u s]. *)

val mask_of_set : t -> Scheme.Set.t -> int
val set_of_mask : t -> int -> Scheme.Set.t

val popcount : int -> int
val lowest_bit : int -> int
val bit_index : int -> int
(** [bit_index b] is the index of a one-bit mask [b] (its log2). *)

val neighborhood : t -> int -> int
(** Schemes outside the mask sharing an attribute with some scheme
    inside it. *)

val linked : t -> int -> int -> bool
(** The paper's "linked": do the attribute universes intersect?  Masks
    need not be disjoint (a shared scheme links them trivially). *)

val is_connected : t -> int -> bool
(** Mask-BFS connectivity; the empty mask is vacuously connected. *)

val components : t -> int -> int list
(** Component masks in increasing order of their minimum scheme. *)

val iter_subsets : int -> (int -> unit) -> unit
(** Non-empty {e proper} submasks, decreasing numeric order. *)

val iter_submasks_ascending : int -> (int -> unit) -> unit
(** Every submask including [0] and the mask itself, increasing. *)

val iter_connected_subsets : t -> int -> (int -> unit) -> unit
(** DPccp-style (Moerkotte–Neumann EnumerateCsg) enumeration of the
    connected subsets of [within]: each emitted exactly once by
    neighborhood expansion, never by enumerate-then-filter: each node,
    highest index first, then its growths by {!csg_rec} excluding the
    nodes of lower index.  DPccp's pair order is this emission order;
    {!connected_subsets} gives increasing mask order. *)

val csg_rec : t -> int -> int -> int -> (int -> unit) -> unit
(** [csg_rec u within s x emit] (EnumerateCsgRec) emits [s lor sub] for
    each non-empty submask [sub] of [n], the neighbours of [s] in
    [within] outside [x], decreasing from [n], then recurses on each
    with [x lor n]. *)

val connected_subsets : t -> int -> int list
(** Connected subsets of [within], in increasing mask order. *)

val iter_binary_partitions : t -> int -> (int -> int -> unit) -> unit
(** Unordered binary partitions [(left, right)] of a mask, each listed
    once with the minimum scheme in [left], in increasing order of
    [left]'s rest-submask. *)

val binary_partitions : t -> int -> (int * int) list

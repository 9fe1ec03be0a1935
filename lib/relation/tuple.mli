(** Tuples.

    A tuple over a relation scheme [R] maps each attribute of [R] to a value
    of its domain (Section 2).  The scheme of a tuple is implicit: it is the
    domain of the mapping. *)

type t
(** A finite mapping from attributes to values. *)

val empty : t
(** The tuple over the empty scheme. *)

val of_list : (Attr.t * Value.t) list -> t
(** [of_list bindings] builds a tuple.
    @raise Invalid_argument if an attribute is bound twice. *)

val of_string_list : (string * Value.t) list -> t
(** [of_string_list] is {!of_list} with attribute names as strings. *)

type header
(** The attribute header of a scheme: its attributes in increasing
    order, built once and shared by every tuple made from it. *)

val header : Attr.Set.t -> header

val of_values : header -> Value.t array -> t
(** [of_values h vals] is the tuple over [h]'s scheme binding its
    [j]-th attribute to [vals.(j)].  The tuple takes [vals] over (the
    caller must not mutate it afterwards) and shares [h] instead of
    copying it, so rows built from one header cost one value array each
    and compare without re-comparing attributes.
    @raise Invalid_argument if [vals] and [h] differ in width. *)

val header_of : t -> header
(** The tuple's own header: physically the one it was built from, so
    two tuples built from one header, or emitted by one {!merger},
    answer the same array. *)

val is_over : header -> t -> bool
(** [is_over h t] holds iff [t]'s scheme is exactly [h]'s.  Allocates
    nothing; constant time when [t] was built from [h]. *)

val bindings : t -> (Attr.t * Value.t) list
(** Bindings in increasing attribute order. *)

val iter : (Attr.t -> Value.t -> unit) -> t -> unit
(** [iter f t] visits the bindings in increasing attribute order,
    without building the {!bindings} list. *)

val scheme : t -> Attr.Set.t
(** The set of attributes the tuple is defined on. *)

val width : t -> int
(** The number of attributes. *)

val value : t -> int -> Value.t
(** [value t j] is the value of [t]'s [j]-th attribute in increasing
    attribute order, read in place (what the result digest walks).
    @raise Invalid_argument unless [0 <= j < width t]. *)

val get : t -> Attr.t -> Value.t
(** [get t a] is the value [t] assigns to [a].
    @raise Not_found if [a] is not in the tuple's scheme. *)

val get_opt : t -> Attr.t -> Value.t option

val set : t -> Attr.t -> Value.t -> t
(** [set t a v] binds [a] to [v], replacing any previous binding.  The
    result is a copy: O(width). *)

val restrict : t -> Attr.Set.t -> t
(** [restrict t x] is the paper's [t[X]]: the restriction of the mapping to
    the attributes in [x].  Attributes of [x] absent from [t]'s scheme are
    ignored. *)

val merge : t -> t -> t
(** [merge t1 t2] is the tuple over the union of the two schemes taking
    values from either argument: {!merger} compiled for this one pair.
    When one scheme contains the other the result is that argument
    itself, physically — [t1] when the schemes are equal.
    @raise Invalid_argument if the tuples disagree on a common attribute
    (naming the least such attribute). *)

val merger : unit -> (t -> t -> t)
(** [merger ()] is {!merge} compiled once per pair of input headers, for
    a join that merges many tuple pairs.  The first call records the
    output header and each output column's source.  Later pairs over
    the same two schemes reuse that record, whether their headers are
    the same arrays or, as {!of_list} builds them, equal ones; a pair
    over other schemes compiles afresh.  A call then checks the common
    columns and, unless one scheme contains the other, allocates
    exactly the result: one value array and one record.

    Every tuple one merger emits from pairs over the same schemes
    shares one header physically, so a join's output rows compare with
    {!compare}'s shared-header shortcut and pass [Relation.make]'s
    scheme check with a pointer test.  Results, including the physical
    return of an argument and the conflict error, are exactly those of
    {!merge}.  The compiled state lives in the returned closure: use one
    merger per join, never one shared across domains. *)

val key_extractor : Attr.Set.t -> (t -> Value.t list)
(** [key_extractor common] is the join key of a tuple: the values of
    the attributes of [common] in increasing attribute order.  The
    attributes' column positions are found once per header (physically
    or attribute for attribute) and reused, so a probe reads the values
    directly; the key list is the only allocation.  Like {!merger}, the
    state lives in the returned closure.
    @raise Not_found if an attribute of [common] is not in the tuple's
    scheme. *)

val compare : t -> t -> int
(** Total order: lexicographic over the (attribute, value) pairs in
    increasing attribute order, an attribute compared before its value
    ({!Attr.compare}, then {!Value.compare}), and a proper prefix
    before its extensions.  Tuples over one scheme therefore compare
    by their values column by column.  Relation states are stored,
    iterated and digested in this order, and {!Frame.to_relation}
    relies on it to decode without sorting: it is part of the result
    digest's contract.  A loop that allocates nothing; tuples sharing
    one header physically skip the attribute comparisons. *)

val equal : t -> t -> bool

val pp : Format.formatter -> t -> unit
(** Prints as [(A=1, B=x)]. *)

val to_string : t -> string

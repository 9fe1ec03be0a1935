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

val of_columns : header -> (int -> Value.t) -> t
(** [of_columns h get] is the tuple over [h]'s scheme binding its
    [j]-th attribute to [get j]; [get] is called for [j = 0, 1, ...] in
    that order.  The tuple shares [h] instead of copying it, so rows
    built from one header cost one value array each and compare
    without re-comparing attributes. *)

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

val joinable : t -> t -> bool
(** [joinable t1 t2] holds iff [t1] and [t2] agree on every attribute common
    to their schemes — the condition for them to contribute a tuple to a
    natural join. *)

val merge : t -> t -> t
(** [merge t1 t2] is the tuple over the union of the two schemes taking
    values from either argument.
    @raise Invalid_argument if the tuples disagree on a common attribute
    (naming the least such attribute). *)

val compare : t -> t -> int
(** Total order: lexicographic over the (attribute, value) pairs in
    increasing attribute order, an attribute compared before its value
    ({!Attr.compare}, then {!Value.compare}), and a proper prefix
    before its extensions.  Tuples over one scheme therefore compare
    by their values column by column.  Relation states are stored,
    iterated and digested in this order, and {!Frame.to_relation}
    relies on it to decode without sorting: it is part of the result
    digest's contract. *)

val equal : t -> t -> bool

val pp : Format.formatter -> t -> unit
(** Prints as [(A=1, B=x)]. *)

val to_string : t -> string

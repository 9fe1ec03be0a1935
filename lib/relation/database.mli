(** Databases.

    A database is an ordered pair [(D, D)] of a database scheme and a state
    over it (Section 2).  States are indexed by their schemes; following
    the paper, a database scheme is a {e set} of relation schemes, so no
    two relations may share a scheme.

    The state is held in up to two forms, each built on first demand
    from the other: per-scheme seed {!Relation.t} states, which the
    seed plane and the paper's algebra read, and one {!Coded.t}, which
    the frame plane and the catalog read.  A generated database is born
    coded ({!of_coded}) and decodes a seed state only when {!find} (or
    anything built on it) asks for that scheme; a database built from
    relations encodes its coded form on the first {!coded}.  Scheme
    queries, {!cardinality}, {!total_tuples} and {!pp_brief} force
    neither form.  Forcing is safe from several domains at once: racers
    may each build a form, exactly one is published and all return
    it. *)

type t

val of_relations : Relation.t list -> t
(** [of_relations rs] builds a database.
    @raise Invalid_argument on an empty list or two relations with the
    same scheme. *)

val of_coded : Coded.t -> t
(** [of_coded c] is the database whose state [c] codes; no seed state
    is built.
    @raise Invalid_argument if [c] has no blocks. *)

val of_rows : (string * Value.t list list) list -> t
(** [of_rows [("AB", rows); ...]] — shorthand mirroring the paper's
    example tables (see {!Relation.of_rows}). *)

val schemes : t -> Scheme.Set.t
(** The database scheme [D]. *)

val scheme_list : t -> Scheme.t list
(** Schemes in increasing {!Scheme.compare} order. *)

val relations : t -> Relation.t list
(** Every seed state, in {!scheme_list} order (forces them all). *)

val find : t -> Scheme.t -> Relation.t
(** The seed state of a scheme, decoded from the coded form on first
    demand.
    @raise Not_found if the scheme is not in the database. *)

val coded : t -> Coded.t
(** The coded form, encoded from the seed states on first demand. *)

val cardinality : t -> Scheme.t -> int
(** The row count of one relation, from whichever form is present.
    @raise Not_found if the scheme is not in the database. *)

val seed_forced : t -> int
(** How many seed states have been decoded from the coded form, in this
    database and every database derived from it ({!restrict},
    {!replace}, {!map_states}).  Each relation counts at most once. *)

val mem : t -> Scheme.t -> bool

val size : t -> int
(** [|D|], the number of relations. *)

val universe : t -> Attr.Set.t
(** [∪D]. *)

val restrict : t -> Scheme.Set.t -> t
(** [restrict db d'] is the sub-database [(D', D')].  It keeps the coded
    form (over the parent's dictionary) and shares the seed states, so a
    state forced through either is forced for both.
    @raise Invalid_argument if [d'] is empty or not a subset of the
    database scheme. *)

val replace : t -> Relation.t -> t
(** [replace db r] swaps in a new state for the scheme of [r].  The
    result has seed states only: the other states are forced.
    @raise Not_found if the scheme is not present. *)

val join_all : t -> Relation.t
(** [R_D = ⋈_{R ∈ D} R], evaluated left-to-right over the sorted scheme
    list.  The result is independent of the order (commutativity and
    associativity of natural join). *)

val total_tuples : t -> int
(** Sum of the cardinalities of the base relations; forces no form. *)

val map_states : (Relation.t -> Relation.t) -> t -> t
(** Apply a scheme-preserving transformation to every state.  The
    result has seed states only.
    @raise Invalid_argument if the function changes some scheme. *)

val equal : t -> t -> bool

val pp : Format.formatter -> t -> unit
(** Prints every relation as an ASCII table. *)

val pp_brief : Format.formatter -> t -> unit
(** One line: schemes with cardinalities. *)

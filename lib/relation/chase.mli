(** The tableau chase and lossless-join testing.

    Section 4 derives condition [C2] from the assumption that the database
    "has no nontrivial lossy joins", citing the polynomial test of Aho,
    Beeri and Ullman [1].  This module implements that test: given a set of
    functional dependencies and a decomposition [{R_1, ..., R_k}] of
    [U = R_1 ∪ ... ∪ R_k], the decomposition has a lossless join iff
    chasing the initial tableau with the dependencies produces an
    all-distinguished row. *)

type symbol =
  | Distinguished
  | Var of int
(** A tableau entry: the distinguished symbol for its column, or a numbered
    nondistinguished variable. *)

type tableau = symbol Attr.Map.t array
(** One row per relation scheme of the decomposition; every row is defined
    on all of [U]. *)

val initial : Attr.Set.t list -> tableau
(** [initial schemes] is the standard starting tableau: row [i] carries the
    distinguished symbol on the attributes of scheme [i] and a fresh
    variable elsewhere.
    @raise Invalid_argument on an empty scheme list. *)

val chase : Fd.t -> tableau -> tableau
(** [chase fds t] applies FD-rules until fixpoint: whenever two rows agree
    on [lhs], their [rhs] symbols are equated (distinguished wins;
    otherwise the lower-numbered variable wins). *)

val has_distinguished_row : tableau -> bool
(** Does some row consist of distinguished symbols only? *)

val is_lossless : Fd.t -> Attr.Set.t list -> bool
(** [is_lossless fds schemes]: does the decomposition [schemes] of their
    union have a lossless join under [fds]?  For a single scheme this is
    trivially [true]. *)

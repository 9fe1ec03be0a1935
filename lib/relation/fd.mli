(** Functional dependencies.

    Section 4 of the paper derives conditions [C2] and [C3] from semantic
    constraints expressed as functional dependencies: lossless joins give
    [C2], and joins on superkeys give [C3].  This module provides the
    classical FD machinery those arguments need: attribute-set closure,
    superkey and key inference, covers, and satisfaction checks. *)

type fd = {
  lhs : Attr.Set.t;
  rhs : Attr.Set.t;
}
(** The dependency [lhs → rhs]. *)

type t = fd list
(** A set of functional dependencies (order and duplicates irrelevant). *)

val fd : Attr.Set.t -> Attr.Set.t -> fd
(** [fd x y] is [x → y].
    @raise Invalid_argument if [x] is empty. *)

val of_strings : (string * string) list -> t
(** [of_strings [("AB", "C")]] uses the single-character shorthand. *)

val pp_fd : Format.formatter -> fd -> unit
val pp : Format.formatter -> t -> unit

val closure : t -> Attr.Set.t -> Attr.Set.t
(** [closure fds x] is [x⁺], the set of attributes functionally determined
    by [x] — the standard linear-closure fixpoint. *)

val implies : t -> fd -> bool
(** [implies fds d] tests [fds ⊨ d] via closure. *)

val is_superkey : t -> Attr.Set.t -> Attr.Set.t -> bool
(** [is_superkey fds scheme x] holds iff [x ⊆ scheme] determines all of
    [scheme]: [scheme ⊆ closure fds x].  This is the paper's notion of a
    join attribute set "forming a superkey" of a relation. *)

val is_key : t -> Attr.Set.t -> Attr.Set.t -> bool
(** A superkey no proper subset of which is a superkey. *)

val candidate_keys : t -> Attr.Set.t -> Attr.Set.t list
(** All candidate keys of [scheme] under [fds] (exponential in the scheme
    width; schemes here are small). *)

val project : t -> Attr.Set.t -> t
(** [project fds scheme] is the projection of the dependency set onto
    [scheme]: all [x → y] with [x, y ⊆ scheme] implied by [fds], reduced to
    a cover.  Exponential in the width of [scheme]. *)

val minimal_cover : t -> t
(** A minimal (canonical) cover: singleton right-hand sides, no
    extraneous left-hand attributes, no redundant dependencies. *)

val equivalent : t -> t -> bool
(** Mutual implication of two dependency sets. *)

val holds_in : Relation.t -> fd -> bool
(** [holds_in r d] checks that the state [r] satisfies [d].
    @raise Invalid_argument if [d] mentions attributes outside [r]'s
    scheme. *)

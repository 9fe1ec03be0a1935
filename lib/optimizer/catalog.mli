(** Catalog statistics.

    What a 1990s optimizer knows about the data: per-relation
    cardinalities and per-attribute distinct-value counts.  Catalogs are
    either collected from a concrete database or declared synthetically
    for estimator-only experiments. *)

open Mj_relation

type t

val of_database : Database.t -> t
(** Exact statistics counted on the coded form ({!Database.coded}):
    row counts, and distinct codes per column with one mark array over
    the dictionary.  Forces no seed state. *)

val synthetic : (Scheme.t * int * (Attr.t * int) list) list -> t
(** [synthetic [(scheme, card, [(attr, distinct); ...]); ...]].
    Unlisted attributes default to [card] distinct values (i.e. treated
    as key-like).
    @raise Invalid_argument on duplicate schemes, a negative
    cardinality, or a distinct count below 1 for a non-empty
    relation. *)

val equal : t -> t -> bool
(** Same schemes, cardinalities and distinct counts. *)

val schemes : t -> Scheme.t list

val cardinality : t -> Scheme.t -> int
(** @raise Not_found for schemes outside the catalog. *)

val distinct : t -> Scheme.t -> Attr.t -> int
(** Distinct values of an attribute within a relation.
    @raise Not_found for schemes or attributes outside the catalog. *)

val pp : Format.formatter -> t -> unit

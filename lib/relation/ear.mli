(** GYO ear search on attribute bitsets: the one routine behind
    α-acyclicity ([Mj_hypergraph.Gyo]), the planner's join trees and
    {!Frame.Db.count}.

    Scheme [i] of a search is the [i]-th scheme it was made from.  Its
    {e linking} attributes (those two or more schemes carry) form a
    bitset of [words] ints at [bits.(i * words)], bit [b] the [b]-th
    linking attribute in attribute order; an attribute only one scheme
    carries can never be shared, so it gets no bit.  [live] is a bitset
    over the scheme indices, any number of them: bit [i] of word
    [i / Sys.int_size] is scheme [i].

    A live scheme [e] is an {e ear} when every attribute it shares with
    another live scheme lies inside one other live scheme [p], its
    {e witness}.  Its shared attributes are its bits among those set in
    two or more live bitsets (the seen-once / seen-many words), so one
    search costs O(k·words) to tally and at most O(k²·words) to test,
    and allocates nothing. *)

type t = private {
  k : int;  (** schemes *)
  words : int;  (** ints per attribute bitset, at least 1 *)
  bits : int array;
      (** [k * words]: the schemes' linking attributes.  A caller may
          rewrite a scheme's bitset (the counter's merges do). *)
  live : int array;
      (** the live schemes; {!make} sets all [k], {!remove} clears one,
          and a caller may write the words itself (the counter sets
          word 0 to its mask) *)
  once : int array;  (** scratch: bits seen in one live bitset or more *)
  many : int array;  (** scratch: bits seen in two or more *)
  links : int Attr.Map.t;  (** linking attribute → its bit *)
}

val make : Scheme.t array -> t
(** The search over the given schemes, all live. *)

val nlinks : t -> int
(** The number of linking attributes. *)

val link : t -> Attr.t -> int
(** The bit of a linking attribute, [-1] for any other. *)

val remove : t -> int -> unit
(** Scheme [i] is no longer live. *)

val find : t -> int
(** The first live ear [e] (lowest index) and its lowest-index witness
    [p], as [e * k + p]; [-1] when no live scheme is an ear, or fewer
    than two are live. *)

(** Coded databases: a database's one encoded form.

    A coded database is one dictionary of values in ascending
    {!Value.compare} order plus, per relation scheme, a {e frame}: a
    {e canonical} row-major buffer of codes into it (rows strictly
    ascending lexicographically, hence duplicate-free) with its
    attribute header.  Because code order is value order, a canonical
    buffer lists its rows in {!Tuple.compare} order: decoding needs no
    sort, and no rank table translates between the two orders.

    The dictionary ({!Dict}), the sort ({!canonicalize}), the frame
    record and the decode loop ({!to_relation}) live here, below
    {!Database} and [Frame], so both use them. *)

(** {1 Value dictionary} *)

module Dict : sig
  type t
  (** An immutable value dictionary: a strictly ascending array of
      distinct [Value.t]s, value [values.(c)] coded as [c].  So code
      order is value order: rows compared code by code compare like
      their decoded tuples, and no rank table translates between the
      two.  One dictionary is shared by all frames of a database, so
      codes are comparable across relations and join keys never need
      to look at the underlying values.  Any number of domains may
      read it at once: its only cache ({!text}) publishes a whole
      array through an [Atomic]. *)

  val of_sorted : Value.t array -> t
  (** [of_sorted values] is the dictionary coding [values.(c)] as [c].
      The array is shared, never written.
      @raise Invalid_argument unless [values] is strictly ascending by
      [Value.compare]. *)

  val size : t -> int

  val code : t -> Value.t -> int option
  (** [code d v] is [v]'s code if [d] holds [v] (a binary search). *)

  val value : t -> int -> Value.t
  (** Decode.  @raise Invalid_argument if the code is out of range. *)

  val text : t -> string array
  (** [Value.to_string] of every code, computed once. *)
end

(** {1 Canonical form} *)

val canonicalize :
  ?on_sort:(int -> unit) -> int -> int -> int array -> int * int array
(** [canonicalize w nrows data] sort-uniques the first [nrows] rows of
    width [w] held in a possibly larger buffer, returning the kept row
    count and an exact-length canonical buffer.  The codes must be
    non-negative ints.  Already-canonical input short-circuits to a
    trim (the input buffer itself when no trim is needed) after one
    allocation-free O(rows * w) scan.  Anything else is sorted, after
    [on_sort nrows] (how the frame plane counts the rows it sorts).
    The sort calls no comparator:
    - {b packed path.}  When the per-column code widths (the bits of
      each column's largest code) add up to 62 bits or fewer, each row
      is packed into one int key, column 0 most significant, so key
      order is row order.  The keys are LSD-radix-sorted, adjacent
      duplicates dropped, and the survivors unpacked.  The radix digit
      is sized from the data: at most 11 bits, at most the bits of
      [nrows] and at most the total key width, so a handful of rows
      never pays for a 2{^11}-bucket histogram.  Time O(passes *
      (rows + 2{^digit})) with passes = ⌈key bits / digit⌉.
    - {b fallback.}  Wider rows are ordered by {!order}'s sort and
      copied out without their duplicates. *)

(** {1 Row order} *)

val order :
  ?on_sort:(int -> unit) -> ?compares:int ref -> int -> int -> int array ->
  int array option
(** [order w nrows data] lists the first [nrows] rows of width [w] in
    ascending lexicographic code order.  Codes follow value order, so
    a frame's rows come out in {!Tuple.compare} order without a sorted
    copy of the buffer.  [None]
    means the rows already are strictly ascending (one allocation-free
    O(rows * w) scan); otherwise, after [on_sort nrows], the result is
    the permutation: its [r]-th entry is the row in [r]-th place, and
    equal rows are adjacent.
    - One counting pass on column 0 places every row in its leading
      code's bucket (stable, so a bucket holds its rows in stored
      order).
    - Each multi-row bucket is then finished on columns 1 and up: an
      insertion sort up to 16 rows, an in-place heap sort beyond, so
      skew on column 0 costs O(b log b) per bucket of [b] rows.
    It allocates the permutation and the bucket counts (the largest
    leading code plus two words), nothing per row or cell, and keeps
    no state between calls, so any number of domains may call it at
    once.  [compares], when given, is increased by the row comparisons
    the bucket finish made. *)

(** {1 Frames and coded databases} *)

type frame = {
  scheme : Attr.Set.t;
  attrs : Attr.t array;  (** ascending: [attrs.(j)] labels column [j] *)
  width : int;
  rows : int;
  data : int array;  (** row-major, exactly [rows * width], duplicate-free *)
  sorted : bool;  (** rows ascend lexicographically by code *)
  dict : Dict.t;
}
(** One coded relation state, the record behind the abstract [Frame.t]:
    it lives below {!Database} so that a coded database can hold
    frames.  Everything else builds and reads frames through [Frame]. *)

type t = private { ddict : Dict.t; frames : frame Scheme.Map.t }
(** A coded database, which is [Frame.Db.t]: one sorted frame per
    scheme, all coded against [ddict].  {!of_ints} and {!of_relations}
    keep exactly the values some frame uses. *)

type block = { rows : int; codes : int array }
(** The generators' output: [rows] rows of row-major non-negative ints,
    one column per attribute of the block's scheme in increasing
    order, in any row order, duplicates allowed. *)

val of_ints : (Scheme.t * block) list -> t
(** [of_ints blocks] codes generated data: the ints present anywhere
    become the dictionary (as [Value.int], ascending), every cell is
    remapped to its dense code in one pass into an exact-length buffer
    and every block is canonicalized — the set semantics of
    {!Relation.make}.  No allocation depends on the largest int.
    @raise Invalid_argument on a negative int, a block shorter than its
    row count or two blocks of one scheme. *)

val of_relations : Relation.t list -> t
(** The coded form of relation states (distinct schemes): the distinct
    values sorted once, then each state coded by {!of_relation}. *)

val of_relation : Dict.t -> Relation.t -> frame
(** [of_relation dict r] codes [r] by looking each value up in [dict];
    the rows come out sorted with one scan.
    @raise Invalid_argument if [dict] lacks a value of [r]. *)

val to_relation : ?perm:int array -> frame -> Relation.t
(** Decode a frame, its rows taken in stored order or in the order
    [perm] lists them.  Codes follow value order, so a sorted frame
    needs no [perm]. *)

val restrict : t -> Scheme.Set.t -> t
(** The frames of the given schemes, shared, over the same dictionary
    (which may then hold values no kept frame uses). *)

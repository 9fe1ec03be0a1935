(** Coded databases: the frame plane's input form.

    A coded database is one dictionary of values in ascending
    {!Value.compare} order plus, per relation scheme, a {e canonical}
    row-major buffer of codes into it: rows strictly ascending
    lexicographically, hence duplicate-free.  Because code order is
    value order, a canonical buffer lists its rows in {!Tuple.compare}
    order, so decoding needs no sort and a frame built on it can be
    decoded and digested without ranking the dictionary.

    The dictionary ({!Dict}) and the sort ({!canonicalize}) live
    here, below {!Database} and {!Frame}, so both can use them. *)

(** {1 Value dictionary} *)

module Dict : sig
  type t
  (** A mutable interning table mapping every distinct [Value.t] seen so
      far to a dense code [0 .. size-1], with the inverse decode array.
      One dictionary is shared by all frames of a database, so codes are
      comparable across relations and join keys never need to look at
      the underlying values.  Interning mutates the table: it is not
      safe to intern from two domains at once.  Every other operation
      only reads it (the caches below publish whole arrays through an
      [Atomic]). *)

  val create : ?hint:int -> unit -> t

  val of_sorted : Value.t array -> t
  (** [of_sorted values] is the dictionary coding [values.(c)] as [c].
      [values] must be strictly ascending by [Value.compare]; the value
      order is then known up front ({!order} is the identity) and the
      value-to-code table is built only if something interns or looks
      a value up.  The array is shared, never written. *)

  val size : t -> int

  val intern : t -> Value.t -> int
  (** [intern d v] returns the code of [v], assigning the next dense
      code on first sight. *)

  val code : t -> Value.t -> int option
  (** [code d v] is [v]'s code if it has been interned. *)

  val value : t -> int -> Value.t
  (** Decode.  @raise Invalid_argument if the code is out of range. *)

  type order = {
    covers : int;  (** the dictionary size the order was computed at *)
    rank : int array;  (** code -> rank in value order *)
    by_rank : int array;  (** rank -> code *)
    identity : bool;  (** codes already follow value order *)
  }

  val order : t -> order
  (** The codes ranked by [Value.compare], cached until the next new
      value is interned. *)

  val text : t -> string array
  (** [Value.to_string] of every code, cached the same way. *)
end

(** {1 Canonical form} *)

val canonicalize :
  ?on_sort:(int -> unit) -> int -> int -> int array -> int * int array
(** [canonicalize w nrows data] sort-uniques the first [nrows] rows of
    width [w] held in a possibly larger buffer, returning the kept row
    count and a packed canonical buffer.  The codes must be
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
    - {b fallback.}  Wider rows are ordered by {!rank_order}, every
      code its own rank, and copied out without their duplicates. *)

(** {1 Rank order} *)

val rank_order :
  ?on_sort:(int -> unit) -> ?compares:int ref -> rank:int array ->
  int -> int -> int array -> int array option
(** [rank_order ~rank w nrows data] lists the first [nrows] rows of
    width [w] in ascending lexicographic order of [rank.(code)] per
    column.  [rank] is a dictionary's code-to-rank table (the identity
    when codes follow value order), so a frame's rows come out in
    {!Tuple.compare} order without a sorted copy of the buffer.  [None]
    means the rows already are strictly ascending (one allocation-free
    O(rows * w) scan); otherwise, after [on_sort nrows], the result is
    the permutation: its [r]-th entry is the row in [r]-th place, and
    equal rows are adjacent.
    - One counting pass on column 0 places every row in its leading
      rank's bucket (stable, so a bucket holds its rows in stored
      order).
    - Each multi-row bucket is then finished on columns 1 and up: an
      insertion sort up to 16 rows, an in-place heap sort beyond, so
      skew on column 0 costs O(b log b) per bucket of [b] rows.
    It allocates the permutation and the bucket counts (the largest
    leading rank plus two words), nothing per row or cell, and keeps
    no state between calls, so any number of domains may call it at
    once.  [compares], when given, is increased by the row comparisons
    the bucket finish made. *)

(** {1 Coded databases} *)

type block = { rows : int; codes : int array }
(** [rows] rows of row-major codes whose width is the cardinality of
    the block's scheme (columns in increasing attribute order). *)

type t = private { values : Value.t array; blocks : block Scheme.Map.t }
(** [values] strictly ascending by [Value.compare]; every block
    canonical, its codes indexing [values].  {!of_ints} and
    {!of_relations} keep exactly the values some block uses, so the
    dictionary size is the database's distinct-value count. *)

val of_ints : (Scheme.t * block) list -> t
(** [of_ints blocks] codes raw generated data: each block holds
    non-negative ints, in any row order and with duplicate rows
    allowed.  The ints present anywhere become the dictionary (as
    [Value.int], ascending), every cell is remapped to its dense code
    in one pass and every block is canonicalized — the set semantics of
    {!Relation.make}.  No allocation depends on the largest int.
    @raise Invalid_argument on a negative int, a block shorter than its
    row count or two blocks of one scheme. *)

val of_relations : Relation.t list -> t
(** The coded form of relation states (distinct schemes): intern,
    rank the values once, recode by rank. *)

val rows : t -> Scheme.t -> int
(** @raise Not_found if the scheme is absent. *)

val decode : t -> Scheme.t -> Relation.t
(** The relation state a block codes.
    @raise Not_found if the scheme is absent. *)

val restrict : t -> Scheme.Set.t -> t
(** The blocks of the given schemes, over the same dictionary (which
    may then hold values no kept block uses). *)

(** The result digest: 64-bit FNV-1a over a fixed byte stream.

    The one place that knows the wire format behind every served
    result hash: the scheme string, then for each row ["\n("], its
    cells as [A=v] separated by [", "] in ascending attribute order,
    and [")"] — a newline and the {!Tuple.to_string} rendering per row.
    {!Relation.digest} and {!Frame.digest} only hand over their rows
    in order, so the two cannot drift apart.

    One byte loop serves both feeders.  It holds the hash state in a
    local unboxed [Int64] and does one xor and one multiply per byte,
    and each feeder ({!text_rows}, {!tuples}) keeps that state in
    registers across all the rows it is given and stores it once at
    the end.  Column labels are built once per stream and integers are
    rendered into a per-stream scratch, so feeding rows allocates
    nothing per row, cell or decimal. *)

type result

val result : Attr.Set.t -> result
(** A stream over a (non-empty) scheme, with the scheme string fed. *)

val text_rows :
  result -> text:string array -> data:int array -> width:int ->
  ?perm:int array -> int -> unit
(** [text_rows s ~text ~data ~width ?perm n] feeds [n] whole rows of
    the row-major code buffer [data]: the [r]-th row fed is row
    [perm.(r)] of [data] ([r] without [perm]), and its cell [j] is
    rendered as [text.(code)].  That is how a frame is certified:
    [text] is its dictionary's rendering of every code, and [perm] its
    rows' value order.
    @raise Invalid_argument if [width] is not the scheme's width. *)

val tuples : result -> Tuple.t array -> unit
(** Feed each tuple, in array order, as one whole row: the cells of a
    tuple over the stream's scheme, in ascending attribute order.
    @raise Invalid_argument if a tuple's width is not the scheme's. *)

val digest : result -> int64
(** The hash of everything fed so far. *)

(** The result digest: 64-bit FNV-1a over a fixed byte stream.

    The one place that knows the wire format behind every served
    result hash: the scheme string, then for each row ["\n("], its
    cells as [A=v] separated by [", "] in ascending attribute order,
    and [")"] — a newline and the {!Tuple.to_string} rendering per row.
    {!Relation.digest} and {!Frame.digest} only walk their rows and
    feed the cells, so the two cannot drift apart.

    The hash state is two 32-bit halves held in native ints and the
    column labels are built once per stream, so feeding a row
    allocates nothing: no boxed [Int64] per byte, no rendered string
    per tuple or decimal. *)

type result

val result : Attr.Set.t -> result
(** A stream over a (non-empty) scheme, with the scheme string fed. *)

val cell_value : result -> Value.t -> unit
(** Feed the next cell of the current row: its column's label, then
    the bytes of [Value.to_string v].
    @raise Invalid_argument if the row already has every column. *)

val cell_text : result -> string -> unit
(** {!cell_value} with the value's rendering given as a string. *)

val end_row : result -> unit
(** Close the current row.
    @raise Invalid_argument unless the row has every column. *)

val digest : result -> int64
(** The hash of everything fed so far. *)

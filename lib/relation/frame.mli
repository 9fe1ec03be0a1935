(** Columnar relation frames: the dictionary-encoded data plane.

    The seed algebra ({!Relation}) stores each tuple as an attribute header and a
    boxed [Value.t] array and each relation as a sorted array of
    tuples, so every join probe still allocates a merged tuple and
    hashes a heap-allocated key.  A
    {e frame} is the flat, integer-coded twin of a {!Relation}: a
    per-database {!Dict} codes every [Value.t] by its rank in value
    order, and a relation state becomes one row-major packed-code
    buffer plus a column-index header (the sorted scheme).  Equality, hashing and
    joins then work on packed int rows — no per-probe allocation.

    Rows live in one plain [int array] per frame, exactly [rows ×
    width] codes long.  The paper prices a strategy by τ alone, and τ
    does not depend on what holds the rows, so there is one row store.

    Rows are always {e distinct}; canonical {e order} (rows sorted
    lexicographically by code) is a flag each frame carries and is
    established only where something reads it.  {!of_relation},
    {!project}, {!generic_join}, {!topk} and {!Db.of_database} produce
    sorted frames; {!natural_join} leaves its emitted rows unsorted
    (the join of distinct inputs is already distinct) and {!semijoin}
    inherits its left input's flag.  The readers of order sort an
    unsorted frame on demand: {!equal} and the tries behind
    {!generic_join} and {!topk} by {!sort}, decode and digest
    ({!to_relation}, {!digest}, the engine's finishers) by walking the
    permutation of one {!value_order} pass.  So the τ-counting joins
    of a plan never sort, and a result is put in order once, by
    whoever reads its order.  The hash join emits the same rows in the
    same order inline and on the pool, at any [MJ_DOMAINS].

    The public algebra mirrors {!Relation}; [to_relation (of_relation
    dict r) = r] for every state whose values [dict] holds, and each
    operation agrees with its seed counterpart (certified by
    [test/test_frame.ml] and the [bench FRAME] head-to-head). *)

(** {1 Value dictionary} *)

module Dict = Coded.Dict
(** The per-database value dictionary ({!Coded.Dict}). *)

(** {1 Row storage} *)

type storage = Heap
(** Read by nothing.  Kept only so that [Engine.Config.t] literals
    outside [lib/] that set [frame_storage = Frame.Heap] still compile;
    frames have one row store, the heap [int array]. *)

(** {1 Frames} *)

type t
(** A columnar relation state: sorted attribute header, row-major packed
    codes of duplicate-free rows, a flag saying whether those rows are
    in canonical (code-lexicographic) order, and the dictionary the
    codes refer to. *)

type stats = {
  mutable probes : int;      (** hash-table probes during joins *)
  mutable probe_hits : int;  (** probes that produced ≥ 1 output row *)
  mutable partitions : int;  (** hash indexes the joins built (1 per join) *)
  mutable morsels : int;     (** probe morsels the joins ran (1 inline) *)
  mutable sorted_rows : int;
      (** rows that went through a sort — not through the
          already-sorted scan — in {!sort}, the order pass of
          {!value_order}, the tries, {!generic_join} and {!topk} *)
}
(** Counters threaded through the join kernels ([mj_relation] cannot
    depend on the engines; engines fold these into observability
    counters). *)

val fresh_stats : unit -> stats

val of_relation : Dict.t -> Relation.t -> t
(** [of_relation dict r] encodes [r] by looking each value up in
    [dict]; the rows come out sorted with one scan.
    @raise Invalid_argument if [dict] lacks a value of [r]. *)

val value_order : ?stats:stats -> t -> int array option
(** The rows' value order ({!Tuple.compare} order of the decoded
    tuples), as the permutation {!to_relation} and {!digest} walk:
    [None] for a sorted frame (codes follow value order) or rows that
    pass {!Coded.order}'s scan, else [Some p], the [r]-th row in value
    order being stored row [p.(r)].  The order pass copies no rows and
    adds the frame's rows to [stats.sorted_rows].  Two failpoints plant
    defects here for [mjoin fuzz --self-test]: under
    [frame.skip_root_sort] an unsorted frame is taken to be in order,
    under [frame.certify_bucket] the first run of rows sharing a
    leading code keeps its stored order. *)

val to_relation : ?stats:stats -> t -> Relation.t
(** Decode back to the seed representation, walking {!value_order}
    (so the decode is the frame's one sort, counted in [stats]) in
    {!Database.find}'s decode loop ({!Coded.to_relation}).
    Round-trip identity: [Relation.equal (to_relation (of_relation d r)) r]. *)

val digest : ?stats:stats -> t -> int64
(** [Relation.digest (to_relation f)], computed on the code buffer
    without decoding and without a sorted copy: one {!value_order}
    pass, then one block of {!Fnv.text_rows} over the rows in that
    order, each present value rendered once per dictionary
    ({!Dict.text}). *)

val scheme : t -> Attr.Set.t
val cardinality : t -> int
(** The paper's τ: the number of rows. *)

val is_empty : t -> bool
val dict : t -> Dict.t

val sorted : t -> bool
(** The rows are in canonical order.  [false] only on {!natural_join}
    outputs (and semijoins of them) that nothing has sorted yet. *)

val sort : ?stats:stats -> t -> t
(** [sort f] is [f] with its rows in canonical (code) order: [f] itself
    when it is already sorted, else one sort into a fresh frame, its
    rows added to [stats.sorted_rows] (unless they pass the
    already-sorted scan).  Decode and digest do not need it: they walk
    {!value_order}. *)

val equal : t -> t -> bool
(** Content equality (scheme + rows, sorted on demand).  Only
    meaningful for frames sharing one dictionary. *)

val same_emission : t -> t -> bool
(** The same rows {e in the same stored order}: the order an unsorted
    frame's rows were emitted in, which {!equal} and every sorted
    reader ignore.  Only meaningful for frames sharing one
    dictionary. *)

(** {1 Algebra} *)

val default_morsel : int
(** Rows per probe morsel of the hash join (16384). *)

val natural_join :
  ?obs:Mj_obs.Obs.sink -> ?domains:int -> ?morsel:int -> ?stats:stats ->
  t -> t -> t
(** [natural_join f1 f2] is the columnar [R1 ⋈ R2].  The join key
    extractor is compiled once per join: common-column offsets are
    precomputed and multi-column keys are FNV-mixed into one int, so
    probing allocates nothing.  One hash-join kernel indexes the
    smaller side and probes the larger in morsels of [morsel] rows
    (default {!default_morsel}).  The rule for parallelism is the only
    one: the join runs on [Mj_pool.Pool] iff the probe side spans at
    least two morsels and the pool grants more than one worker
    ([Mj_pool.Pool.workers domains], [domains] defaulting to
    [Mj_pool.Pool.default_domains]).  Otherwise it builds inline and
    probes every row into one buffer.  Either way the index is built
    once: each build row's key hash is computed (in [morsel]-row pool
    tasks on the pool path), then one ascending pass threads the
    chains, so the build does one hash and one insert per build row
    at any [domains].  On the pool the morsels are pulled from the
    pool's work queue, each filling a private buffer; buffers merge
    in morsel-index order, so the emitted rows are bit-identical on
    either path and at any [domains].  The result is those rows,
    {e unsorted}: every output row merges one distinct input pair, so
    it is distinct without a pass, and order is left to the readers of
    order ({!sort}).  [stats.partitions] counts one index per join and
    [stats.morsels] the probe morsels the join ran (one inline).
    With an active [obs] sink the pool path records one [morsel] child
    span per probe morsel (via [Mj_pool.Pool.run_traced]), each tagged
    with the worker lane that ran it — the per-domain timelines of a
    parallel join; the inline path records none.
    @raise Invalid_argument if the frames use different dictionaries. *)

val semijoin : ?stats:stats -> t -> t -> t
(** [semijoin f1 f2] is [R1 ⋉ R2]: [f2] indexed inline by the hash
    join's index build, [f1] probed in one pass. *)

val project : t -> Attr.Set.t -> t
(** [project f x] is [R[X]] with sort-unique dedup on the packed rows.
    @raise Invalid_argument if [x] is not a non-empty subset of the
    scheme. *)

(** {1 Trie iterators and the generic join} *)

(** Linear trie iterators over a frame's packed rows.

    A sorted frame {e is} a trie: rows are sorted lexicographically
    by code, so the rows sharing a fixed prefix of column values form
    one contiguous run, and each deeper column refines the run.  The
    iterator is three small int stacks over the packed buffer — opening
    a level narrows to the current key's run, [next]/[seek] move by
    binary search inside the parent's run — with no node structures and
    no allocation after {!Trie.of_frame}.

    Iterators bind columns in the order induced by a global attribute
    [order] (the generic join's elimination order).  When the induced
    order differs from the frame's natural sorted-attribute order, or
    the frame is unsorted, the rows are sorted once by {!Trie.of_frame}
    (the permuted copy, when there is one, is the only copy sorted);
    when it coincides on a sorted frame, the frame's own buffer is
    iterated in place. *)
module Trie : sig
  type frame := t

  type t
  (** Mutable iterator state: current depth plus per-depth
      [(lo, hi, pos)] run bounds. *)

  val of_frame : ?stats:stats -> order:Attr.t list -> frame -> t
  (** Build an iterator for [f] binding columns in the order its
      attributes appear in [order].  The iterator starts at the root
      (no column bound).  A sort, if one is needed, counts in
      [stats.sorted_rows].
      @raise Invalid_argument if [order] does not cover the scheme. *)

  val arity : t -> int
  (** Number of columns (= the frame's width). *)

  val attrs : t -> Attr.t list
  (** The columns in binding (induced) order. *)

  val open_ : t -> unit
  (** Descend one level: bind the next column, positioning at the first
      key of the run selected by the levels above (the whole frame at
      the root). *)

  val up : t -> unit
  (** Return to the previous level. *)

  val at_end : t -> bool
  (** No keys left at the current level. *)

  val key : t -> int
  (** The current key (code) at the current level.  Only valid when
      [not (at_end t)]. *)

  val next : t -> unit
  (** Advance to the next distinct key at the current level. *)

  val seek : t -> int -> unit
  (** [seek t v] advances to the least key [≥ v] at the current level
      (or the end).  Never moves backwards: seeking below the current
      key is a no-op, so repeated seeks are monotone. *)
end

val generic_join : ?stats:stats -> order:Attr.t list -> t list -> t
(** [generic_join ~order frames] is the worst-case-optimal (leapfrog)
    join of [frames]: attributes are bound one at a time in [order],
    and at each level the participating relations' tries are
    intersected by leapfrogging — repeatedly seeking the iterators
    below the running maximum key up to it — so the work at a level is
    bounded by the {e smallest} participating run, not by any
    intermediate join.  Matching assignments stream codes directly into
    a packed output buffer; one final sort yields the same rows
    [natural_join] would produce, sorted, in time bounded by the
    AGM fractional-cover bound of the sub-database (up to log factors).
    [stats.probes] counts leapfrog seeks and [stats.probe_hits] counts
    aligned keys.  {!topk} runs the same kernel.
    @raise Invalid_argument if [frames] is empty, the frames use
    different dictionaries, or [order] is not a permutation of the
    union of the schemes. *)

val topk : ?stats:stats -> order:Attr.t list -> k:int -> t list -> t
(** [topk ~order ~k frames] is the [k] lexicographically least tuples
    (by {!Tuple.compare} over the output scheme) of the natural join of
    [frames], computed without materializing the join:
    {!generic_join}'s own leapfrog kernel runs with an emission budget,
    and since codes follow value order the first [k] emissions are the
    answer and the DFS stops dead.  [order] must be the sorted
    attributes of the union scheme for the emission order to equal
    [Tuple.compare]; with [k] at least the full output size the result
    equals [generic_join].  Work is bounded by the trie prefix the [k]
    results touch ([stats.probes] certifies output-sensitivity).
    [k ≤ 0] or an empty input frame yields the empty frame before any
    work (after the argument checks).
    @raise Invalid_argument if [frames] is empty, the frames use
    different dictionaries, or [order] is not a permutation of the
    union of the schemes. *)

(** {1 Databases of frames} *)

module Db : sig
  type frame := t

  type t
  (** All relations of one {!Database} encoded against one shared
      dictionary: its coded form ({!Coded.t}). *)

  val of_database : Database.t -> t
  (** The database's one encoding ({!Database.coded}): built on the
      first read, then shared by every caller.  Forces no seed
      state. *)

  val dict : t -> Dict.t

  val find : t -> Scheme.t -> frame
  (** @raise Not_found if the scheme is absent. *)

  val join_schemes :
    ?obs:Mj_obs.Obs.sink ->
    ?domains:int -> ?morsel:int -> ?stats:stats ->
    t -> Scheme.Set.t -> frame
  (** Join the named sub-database left-to-right over the sorted scheme
      list — the same order as {!Database.join_all}.  The reference
      join of the tests and benches; {!count} never calls it.
      @raise Invalid_argument on the empty set. *)

  val join_all :
    ?obs:Mj_obs.Obs.sink ->
    ?domains:int -> ?morsel:int -> ?stats:stats ->
    t -> frame

  type counter
  (** The per-database context of {!count}: each scheme's linking
      attributes as a bitset (any number of attributes), the key
      columns of every linked pair, and scratch row weights and hash
      chains sized to the largest relation.  Built once per database;
      a count reuses it and allocates no lists.  A merge (below)
      replaces one scheme's slot for the rest of its count; the next
      count restores it.  Not safe to share between domains. *)

  val counter : t -> counter
  (** @raise Invalid_argument for more relations than an [int] mask
      holds. *)

  val count : counter -> int -> int
  (** [count c mask] is the number of rows of the join of the
      sub-database whose schemes are the set bits of [mask] (bit [i]
      is the [i]-th scheme in [Scheme.compare] order, the indexing of
      [Mj_hypergraph.Bitdb]), counted without materializing it.  GYO
      ear elimination ({!Ear.find}) runs on the linking-attribute
      bitsets; each
      eliminated ear sends its parent a message — its rows grouped by
      the key they share, each group's weight summed — and the parent
      multiplies it into its row weights (Yannakakis in the counting
      semiring), so an α-acyclic mask costs one pass over its code
      buffers with no intermediate rows and no Cartesian-product
      steps.  When no ear is left (a cyclic core), the lowest live
      scheme and the linked live scheme with the fewest rows are
      merged: joined on their shared key with their row weights
      multiplied, projected onto the linking attributes some other
      live scheme carries, and rows that project alike summed into one
      weighted row.  The merged bag takes the first scheme's place and
      ear elimination resumes, so a cyclic core materializes one
      projected two-input join per merge and never the mask's join.
      A parent or merge left with no weighted row ends the count at 0.
      Counts saturate at [max_int].
      @raise Invalid_argument if [mask] is [0] or names a scheme
      outside the database. *)

  val saturating_add : int -> int -> int
  (** [a + b] on non-negative counts, [max_int] when it overflows: τ
      sums counts with it. *)

  val saturating_mul : int -> int -> int
  (** [a × b] on non-negative counts, [max_int] when it overflows. *)

  val generic_join :
    ?stats:stats -> t -> order:Attr.t list -> Scheme.Set.t -> frame
  (** {!Mj_relation.Frame.generic_join} over the named sub-database, in
      sorted scheme order.
      @raise Invalid_argument on the empty set or if [order] is not a
      permutation of the sub-database's attributes. *)
end

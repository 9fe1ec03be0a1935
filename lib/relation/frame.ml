(* Columnar relation frames.  See frame.mli for the representation
   contract: one shared dictionary per database, row-major packed int
   codes in one exact-length [int array], rows always duplicate-free and
   sorted lexicographically by code only where the [sorted] flag says
   so. *)

module Pool = Mj_pool.Pool
module Obs = Mj_obs.Obs

module Dict = Coded.Dict

(* Read by nothing; kept only so existing [Engine.Config.t] literals
   that name [Frame.Heap] still compile. *)
type storage = Heap

type t = {
  scheme : Attr.Set.t;
  attrs : Attr.t array; (* sorted; attrs.(j) labels column j *)
  width : int;
  rows : int;
  data : int array; (* row-major, exactly rows * width ints, duplicate-free *)
  sorted : bool; (* rows ascend lexicographically by code *)
  dict : Dict.t;
}

type stats = {
  mutable probes : int;
  mutable probe_hits : int;
  mutable partitions : int;
  mutable morsels : int;
  mutable sorted_rows : int;
}

let fresh_stats () =
  { probes = 0; probe_hits = 0; partitions = 0; morsels = 0; sorted_rows = 0 }

let scheme f = f.scheme
let cardinality f = f.rows
let is_empty f = f.rows = 0
let dict f = f.dict
let sorted f = f.sorted

let same_emission f1 f2 =
  Attr.Set.equal f1.scheme f2.scheme && f1.data = f2.data

(* ------------------------------------------------------------------ *)
(* Canonical order                                                     *)

let pow2_at_least n =
  let p = ref 1 in
  while !p < n do
    p := 2 * !p
  done;
  !p

(* The [on_sort] hook of the [Coded] sorts: rows that went through a
   sort count in [stats.sorted_rows]. *)
let count_sorted =
  Option.map (fun st n -> st.sorted_rows <- st.sorted_rows + n)

(* Sort-unique [nrows] rows of width [w].  Rows that pass the
   already-sorted scan are only trimmed; the rest go through the sort
   and are counted in [stats.sorted_rows]. *)
let sort_rows ?stats w nrows data =
  Coded.canonicalize ?on_sort:(count_sorted stats) w nrows data

(* The first [len] ints of a scratch buffer as an exact-length row
   store: the buffer itself when it fits exactly, else a trimmed copy. *)
let trim len (a : int array) =
  if Array.length a = len then a else Array.sub a 0 len

(* Code order, established on demand: a sorted frame is returned as it
   is, an unsorted one is sorted once into a fresh frame.  Rows are
   already distinct, so the count cannot change. *)
let sort ?stats f =
  if f.sorted then f
  else begin
    let rows, data = sort_rows ?stats f.width f.rows f.data in
    assert (rows = f.rows);
    { f with data = trim (rows * f.width) data; sorted = true }
  end

(* ------------------------------------------------------------------ *)
(* Conversion                                                          *)

let of_relation dict r =
  let scheme = Relation.scheme r in
  let attrs = Array.of_list (Attr.Set.elements scheme) in
  let w = Array.length attrs in
  let n = Relation.cardinality r in
  let data = Array.make (max 1 (n * w)) 0 in
  (* Tuple.iter visits the values in increasing attribute order = attrs
     order, so the cells arrive row-major. *)
  let cell = ref 0 in
  let put _ v =
    data.(!cell) <- Dict.intern dict v;
    incr cell
  in
  Relation.iter (fun tu -> Tuple.iter put tu) r;
  (* Code order need not follow Value order, so re-sort into canonical
     form (the source set is already duplicate-free). *)
  let rows, data = sort_rows w n data in
  { scheme; attrs; width = w; rows; data = trim (rows * w) data; sorted = true;
    dict }

(* The planted mutation [frame.certify_bucket] for [mjoin fuzz
   --self-test]: put the first run of rows sharing a leading rank back
   in stored order, as if the order pass had not finished that bucket.
   Never active outside an explicit failpoint activation. *)
let unfinish_first_bucket rank f perm =
  let lead r = rank.(f.data.(perm.(r) * f.width)) in
  let i = ref 0 in
  while !i + 1 < f.rows && lead !i <> lead (!i + 1) do
    incr i
  done;
  let j = ref !i in
  while !j + 1 < f.rows && lead !j = lead (!j + 1) do
    incr j
  done;
  let bucket = Array.sub perm !i (!j - !i + 1) in
  Array.sort Int.compare bucket;
  Array.blit bucket 0 perm !i (Array.length bucket)

(* The value order of a frame's rows — the one order pass decode and
   digest share, so the two cannot disagree on row order, and neither
   copies the rows.  A sorted frame over a dictionary whose codes
   follow value order is already in value order; anything else gets
   [Coded.rank_order] by the dictionary's (cached) ranks, which returns
   [None] when the stored order passes its scan.  For same-scheme
   tuples [Tuple.compare] is exactly lexicographic value order over the
   sorted attribute columns, so the rows come out in [Tuple.compare]
   order. *)
let value_order ?stats f =
  let o = Dict.order f.dict in
  if
    o.identity
    && (f.sorted
       || (* The planted mutation for [mjoin fuzz --self-test]: take
             the emitted order for value order, so decode and digest
             read the rows as emitted.  Never active outside an
             explicit failpoint activation. *)
       Mj_failpoint.Failpoint.fire Mj_failpoint.Failpoint.Frame_skip_root_sort)
  then None
  else
    let perm =
      Coded.rank_order ?on_sort:(count_sorted stats) ~rank:o.rank f.width
        f.rows f.data
    in
    (match perm with
    | Some p
      when Mj_failpoint.Failpoint.fire
             Mj_failpoint.Failpoint.Frame_certify_bucket ->
        unfinish_first_bucket o.rank f p
    | _ -> ());
    perm

let to_relation ?stats f =
  (* Rows are distinct and over [f.scheme] by construction: each tuple
     is one value array over a shared header, so [Relation.of_array]'s
     scheme check is a pointer test per tuple, and the rows arrive in
     [Tuple.compare] order ([value_order]), so its sort is one
     ascending scan. *)
  if f.rows = 0 then Relation.empty f.scheme
  else begin
    let w = f.width in
    let perm = value_order ?stats f in
    let value cell = Dict.value f.dict f.data.(cell) in
    let header = Tuple.header f.scheme in
    let tuples = Array.make f.rows Tuple.empty in
    for r = 0 to f.rows - 1 do
      let base = (match perm with None -> r | Some p -> p.(r)) * w in
      let vals = Array.make w (value base) in
      for j = 1 to w - 1 do
        vals.(j) <- value (base + j)
      done;
      tuples.(r) <- Tuple.of_values header vals
    done;
    Relation.of_array f.scheme tuples
  end

(* [Relation.digest (to_relation f)] without building the relation:
   one block of [Fnv]'s byte loop over the code buffer, walked in
   [value_order], with each value rendered once per dictionary. *)
let digest ?stats f =
  let s = Fnv.result f.scheme in
  if f.rows > 0 then
    Fnv.text_rows s ~text:(Dict.text f.dict) ~data:f.data ~width:f.width
      ?perm:(value_order ?stats f) f.rows;
  Fnv.digest s

let equal f1 f2 =
  Attr.Set.equal f1.scheme f2.scheme
  && f1.rows = f2.rows
  && (sort f1).data = (sort f2).data

(* ------------------------------------------------------------------ *)
(* Compiled join specs                                                 *)

let col_of f a =
  let rec go j = if Attr.equal f.attrs.(j) a then j else go (j + 1) in
  go 0

(* Everything a join needs, computed once per join: key-column offsets
   on both sides and the source column of every output column. *)
type join_spec = {
  out_scheme : Attr.Set.t;
  out_attrs : Attr.t array;
  out_width : int;
  k1pos : int array; (* common-column offsets in f1 rows *)
  k2pos : int array; (* common-column offsets in f2 rows *)
  from1 : int array; (* out column j reads f1 col from1.(j), or -1 *)
  from2 : int array; (* ... else f2 col from2.(j) *)
}

let make_spec f1 f2 =
  let out_scheme = Attr.Set.union f1.scheme f2.scheme in
  let out_attrs = Array.of_list (Attr.Set.elements out_scheme) in
  let out_width = Array.length out_attrs in
  let common = Attr.Set.elements (Attr.Set.inter f1.scheme f2.scheme) in
  let k1pos = Array.of_list (List.map (col_of f1) common) in
  let k2pos = Array.of_list (List.map (col_of f2) common) in
  let from1 = Array.make out_width (-1) in
  let from2 = Array.make out_width (-1) in
  Array.iteri
    (fun j a ->
      if Attr.Set.mem a f1.scheme then from1.(j) <- col_of f1 a
      else from2.(j) <- col_of f2 a)
    out_attrs;
  { out_scheme; out_attrs; out_width; k1pos; k2pos; from1; from2 }

(* FNV-1a over the key codes, folded to a non-negative int.  Collisions
   are resolved by [keys_match] below, so the mix only has to spread.
   Unsafe accesses are bounded by the frame invariant: [base] is a row
   base in [data] and [pos] holds in-row column offsets. *)
let key_hash (data : int array) base pos =
  (* FNV-1a 64-bit offset basis folded into OCaml's 63-bit int range. *)
  let h = ref 0x4bf29ce484222325 in
  for k = 0 to Array.length pos - 1 do
    h :=
      (!h lxor Array.unsafe_get data (base + Array.unsafe_get pos k))
      * 0x100000001b3
  done;
  !h land max_int

let keys_match (d1 : int array) b1 p1 (d2 : int array) b2 p2 =
  let k = Array.length p1 in
  let i = ref 0 in
  while
    !i < k
    && Array.unsafe_get d1 (b1 + Array.unsafe_get p1 !i)
       = Array.unsafe_get d2 (b2 + Array.unsafe_get p2 !i)
  do
    incr i
  done;
  !i = k

(* ------------------------------------------------------------------ *)
(* Output row buffer                                                   *)

type buf = { mutable bdata : int array; mutable blen : int (* in ints *) }

let buf_make hint = { bdata = Array.make (max 64 hint) 0; blen = 0 }

let buf_reserve b extra =
  if b.blen + extra > Array.length b.bdata then begin
    let cap = ref (2 * Array.length b.bdata) in
    while b.blen + extra > !cap do
      cap := 2 * !cap
    done;
    let bigger = Array.make !cap 0 in
    Array.blit b.bdata 0 bigger 0 b.blen;
    b.bdata <- bigger
  end

let emit_merged b spec (data1 : int array) base1 (data2 : int array) base2 =
  buf_reserve b spec.out_width;
  let d = b.bdata and o = b.blen in
  for j = 0 to spec.out_width - 1 do
    let c1 = Array.unsafe_get spec.from1 j in
    Array.unsafe_set d (o + j)
      (if c1 >= 0 then Array.unsafe_get data1 (base1 + c1)
       else Array.unsafe_get data2 (base2 + Array.unsafe_get spec.from2 j))
  done;
  b.blen <- o + spec.out_width

(* ------------------------------------------------------------------ *)
(* The hash join                                                       *)

let default_morsel = 16_384

(* Claim granularity for the pool's shared queue: one atomic op per
   chunk of tasks.  Morsels are sized so a handful exist per worker —
   claim singly then; only degenerate floods of tiny tasks batch up. *)
let claim_chunk ntasks workers = max 1 (ntasks / (workers * 64))

(* The index is a chained-array hash table: [head] maps a bucket to its
   first entry, [next] threads the chain through entry slots, so
   building and probing allocate nothing beyond two int arrays. *)
let[@inline] insert head next k h =
  Array.unsafe_set next k (Array.unsafe_get head h);
  Array.unsafe_set head h k

(* Index [f] on its columns [pos].  Each row's key hash is first written
   into its own [next] slot — in [morsel]-row tasks on the pool when
   [workers > 1], inline otherwise — and one ascending pass then
   threads the chains, reading each slot's hash before overwriting it.
   So each chain lists its rows in descending order whoever hashed
   them, and the build does [rows] hashes and [rows] inserts at any
   worker count. *)
let build_index ~workers ~morsel f pos =
  let n = f.rows and w = f.width in
  let next = Array.make (max 1 n) 0 in
  let hash lo hi =
    for k = lo to hi - 1 do
      Array.unsafe_set next k (key_hash f.data (k * w) pos)
    done
  in
  if workers <= 1 then hash 0 n
  else begin
    let nh = (n + morsel - 1) / morsel in
    ignore
      (Pool.run ~domains:workers ~chunk:(claim_chunk nh workers)
         (Array.init nh (fun t () ->
              hash (t * morsel) (min n ((t + 1) * morsel)))))
  end;
  let bmask = pow2_at_least (2 * max 1 n) - 1 in
  let head = Array.make (bmask + 1) (-1) in
  for k = 0 to n - 1 do
    insert head next k (Array.unsafe_get next k land bmask)
  done;
  (head, next, bmask)

(* Probe rows [lo, hi) of [pf] into [b]; emitted rows keep the (f1, f2)
   orientation whichever side was built.  Inlined at both call sites,
   so the inline join's loop compiles into [hash_join] itself. *)
let[@inline] probe_range ~stats ~swap spec head next bmask bf bpos pf ppos b
    lo hi =
  let bw = bf.width and pw = pf.width in
  for q = lo to hi - 1 do
    let pb = q * pw in
    let hit = ref false in
    let k = ref (Array.unsafe_get head (key_hash pf.data pb ppos land bmask)) in
    while !k >= 0 do
      let bb = !k * bw in
      if keys_match pf.data pb ppos bf.data bb bpos then begin
        hit := true;
        if swap then emit_merged b spec pf.data pb bf.data bb
        else emit_merged b spec bf.data bb pf.data pb
      end;
      k := Array.unsafe_get next !k
    done;
    if !hit then stats.probe_hits <- stats.probe_hits + 1
  done;
  stats.probes <- stats.probes + (hi - lo)

(* Hash join: index the smaller frame ({!build_index}), probe the
   larger in morsels of [morsel] rows.  It runs on the pool iff the
   probe side spans at least two morsels and the pool grants more than
   one worker; otherwise it probes every row into one buffer.  On the
   pool the probe morsels are claimed off the shared queue, each into a
   private buffer, and merged in morsel-index order.  The chains and
   hence the emitted rows are the same on either path, at any worker
   count. *)
let hash_join ~obs ~domains ~morsel ~stats spec f1 f2 =
  let swap = f1.rows > f2.rows in
  let bf, bpos, pf, ppos =
    if swap then (f2, spec.k2pos, f1, spec.k1pos)
    else (f1, spec.k1pos, f2, spec.k2pos)
  in
  let np = pf.rows and w = spec.out_width in
  let nmor = (np + morsel - 1) / morsel in
  let workers = min (Pool.workers domains) nmor in
  let head, next, bmask = build_index ~workers ~morsel bf bpos in
  stats.partitions <- stats.partitions + 1;
  if workers <= 1 then begin
    let b = buf_make (w * (np + 16)) in
    probe_range ~stats ~swap spec head next bmask bf bpos pf ppos b 0 np;
    stats.morsels <- stats.morsels + 1;
    (b.blen / w, b.bdata)
  end
  else begin
    stats.morsels <- stats.morsels + nmor;
    let parts =
      Pool.run_traced ~obs ~domains:workers ~chunk:(claim_chunk nmor workers)
        (Array.init nmor (fun m child ->
             let lo = m * morsel in
             let hi = min np (lo + morsel) in
             let st = fresh_stats () in
             let b = buf_make (w * (hi - lo + 16)) in
             let probe () =
               probe_range ~stats:st ~swap spec head next bmask bf bpos pf
                 ppos b lo hi
             in
             if Obs.enabled child then
               Obs.span child
                 ~attrs:
                   [
                     ("morsel", Mj_obs.Json.int m);
                     ("probe_rows", Mj_obs.Json.int (hi - lo));
                   ]
                 "morsel"
                 (fun () ->
                   probe ();
                   Obs.set_attr child "rows" (Mj_obs.Json.int (b.blen / w)))
             else probe ();
             (b, st)))
    in
    (* The planted [frame.lost_morsel] defect leaves the last morsel
       out of the merge.  Never active outside an explicit failpoint
       activation. *)
    let parts =
      if Mj_failpoint.Failpoint.fire Mj_failpoint.Failpoint.Frame_lost_morsel
      then Array.sub parts 0 (nmor - 1)
      else parts
    in
    (* The planted [frame.morsel_order] defect merges the buffers last
       morsel first, as a last-in-first-out claim queue would hand them
       out: the same rows, emitted in another order. *)
    let parts =
      if Mj_failpoint.Failpoint.fire Mj_failpoint.Failpoint.Frame_morsel_order
      then Array.of_list (List.rev (Array.to_list parts))
      else parts
    in
    let total =
      Array.fold_left (fun acc ((b : buf), _) -> acc + b.blen) 0 parts
    in
    let out = Array.make (max 1 total) 0 in
    let off = ref 0 in
    Array.iter
      (fun ((b : buf), (st : stats)) ->
        stats.probes <- stats.probes + st.probes;
        stats.probe_hits <- stats.probe_hits + st.probe_hits;
        Array.blit b.bdata 0 out !off b.blen;
        off := !off + b.blen)
      parts;
    (total / w, out)
  end

let natural_join ?(obs = Mj_obs.Obs.noop) ?domains ?(morsel = default_morsel)
    ?stats f1 f2 =
  if f1.dict != f2.dict then
    invalid_arg "Frame.natural_join: frames use different dictionaries";
  let stats = match stats with Some s -> s | None -> fresh_stats () in
  let spec = make_spec f1 f2 in
  let w = spec.out_width in
  let domains =
    match domains with Some d -> d | None -> Pool.default_domains ()
  in
  let nraw, raw =
    if Array.length spec.k1pos = 0 then begin
      (* Cartesian product: a hash index would be one degenerate bucket. *)
      let b = buf_make (w * (max f1.rows f2.rows + 16)) in
      for i = 0 to f1.rows - 1 do
        for j = 0 to f2.rows - 1 do
          emit_merged b spec f1.data (i * f1.width) f2.data (j * f2.width)
        done
      done;
      (b.blen / w, b.bdata)
    end
    else hash_join ~obs ~domains ~morsel:(max 1 morsel) ~stats spec f1 f2
  in
  (* Each output row is the merge of one distinct (f1, f2) row pair
     and determines both, so distinct inputs give distinct rows: the
     emitted rows are the result, left in emission order. *)
  {
    scheme = spec.out_scheme;
    attrs = spec.out_attrs;
    width = w;
    rows = nraw;
    data = trim (nraw * w) raw;
    sorted = nraw <= 1;
    dict = f1.dict;
  }

let semijoin ?stats f1 f2 =
  if f1.dict != f2.dict then
    invalid_arg "Frame.semijoin: frames use different dictionaries";
  let stats = match stats with Some s -> s | None -> fresh_stats () in
  let common = Attr.Set.elements (Attr.Set.inter f1.scheme f2.scheme) in
  if common = [] then
    if f2.rows = 0 then
      { f1 with rows = 0; data = [||] }
    else f1
  else begin
    let k1pos = Array.of_list (List.map (col_of f1) common) in
    let k2pos = Array.of_list (List.map (col_of f2) common) in
    let head, next, bmask =
      build_index ~workers:1 ~morsel:default_morsel f2 k2pos
    in
    let w = f1.width in
    let out = Array.make (max 1 (f1.rows * w)) 0 in
    let kept = ref 0 in
    for i = 0 to f1.rows - 1 do
      let b1 = i * w in
      stats.probes <- stats.probes + 1;
      let matched = ref false in
      let j = ref head.(key_hash f1.data b1 k1pos land bmask) in
      while (not !matched) && !j >= 0 do
        if keys_match f1.data b1 k1pos f2.data (!j * f2.width) k2pos then
          matched := true
        else j := next.(!j)
      done;
      if !matched then begin
        stats.probe_hits <- stats.probe_hits + 1;
        let dst = !kept * w in
        for c = 0 to w - 1 do
          Array.unsafe_set out (dst + c) (Array.unsafe_get f1.data (b1 + c))
        done;
        incr kept
      end
    done;
    (* A subsequence of distinct rows is distinct, and of sorted rows
       sorted: the flag carries over. *)
    { f1 with rows = !kept; data = trim (!kept * w) out }
  end

let project f x =
  if Attr.Set.is_empty x then
    invalid_arg "Frame.project: projection onto the empty scheme";
  if not (Attr.Set.subset x f.scheme) then
    invalid_arg
      (Printf.sprintf "Frame.project: %s is not a subset of %s"
         (Attr.Set.to_string x)
         (Attr.Set.to_string f.scheme));
  let attrs = Array.of_list (Attr.Set.elements x) in
  let pos = Array.map (col_of f) attrs in
  let w = Array.length attrs in
  let data = Array.make (max 1 (f.rows * w)) 0 in
  for i = 0 to f.rows - 1 do
    let src = i * f.width and dst = i * w in
    for j = 0 to w - 1 do
      data.(dst + j) <- Array.unsafe_get f.data (src + pos.(j))
    done
  done;
  let rows, data = sort_rows w f.rows data in
  { scheme = x; attrs; width = w; rows; data = trim (rows * w) data;
    sorted = true; dict = f.dict }

(* ------------------------------------------------------------------ *)
(* Trie iterators and the generic (worst-case-optimal) join            *)

(* A sorted frame *is* a trie: its rows are sorted lexicographically by
   code, so the rows sharing a fixed prefix of column values form one
   contiguous run and each deeper column refines the run.  A trie
   iterator is therefore three small int stacks over the packed rows —
   no nodes, no pointers.  The only preparation cost is order: the
   generic join binds attributes in one global elimination order, and
   a relation whose induced column order differs from its natural
   (sorted-attribute) order, or that is not sorted at all, needs its
   rows sorted once — one sort, after which iteration is
   allocation-free. *)
module Trie = struct
  type nonrec t = {
    tattrs : Attr.t array; (* columns, in elimination-induced order *)
    tw : int;
    trows : int;
    tdata : int array; (* row-major, sorted lexicographically *)
    mutable depth : int; (* -1 at the root, else the bound column *)
    tlo : int array; (* per depth: start of the parent's run *)
    thi : int array; (* per depth: end of the parent's run *)
    tpos : int array; (* per depth: start row of the current key's run *)
  }

  let of_frame ?stats ~order f =
    if not (List.for_all (fun a -> List.mem a order) (Array.to_list f.attrs))
    then
      invalid_arg "Frame.Trie.of_frame: order does not cover the scheme";
    let induced =
      (* The frame's attributes, reordered by their position in the
         global elimination order. *)
      List.filter (fun a -> Attr.Set.mem a f.scheme) order
    in
    let tattrs = Array.of_list induced in
    let w = f.width in
    let perm = Array.map (col_of f) tattrs in
    let identity =
      let rec go j = j >= w || (perm.(j) = j && go (j + 1)) in
      go 0
    in
    let tdata =
      if identity then (sort ?stats f).data
      else begin
        (* Permuted rows are distinct but, sorted frame or not, in no
           useful order; one sort of the permuted copy makes the
           trie. *)
        let buf = Array.make (f.rows * w) 0 in
        for i = 0 to f.rows - 1 do
          let base = i * w in
          for j = 0 to w - 1 do
            buf.(base + j) <- Array.unsafe_get f.data (base + perm.(j))
          done
        done;
        let rows, sorted = sort_rows ?stats w f.rows buf in
        assert (rows = f.rows);
        sorted
      end
    in
    {
      tattrs;
      tw = w;
      trows = f.rows;
      tdata;
      depth = -1;
      tlo = Array.make (max 1 w) 0;
      thi = Array.make (max 1 w) 0;
      tpos = Array.make (max 1 w) 0;
    }

  let arity t = t.tw
  let attrs t = Array.to_list t.tattrs

  (* First row in [lo, hi) whose column [d] is ≥ [v].  Within a parent
     run the rows share columns 0..d-1, so column [d] is non-decreasing
     and binary search applies. *)
  let lower_bound t d lo hi v =
    let lo = ref lo and hi = ref hi in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if Array.unsafe_get t.tdata ((mid * t.tw) + d) < v then lo := mid + 1
      else hi := mid
    done;
    !lo

  let at_end t = t.tpos.(t.depth) >= t.thi.(t.depth)
  let key t = t.tdata.((t.tpos.(t.depth) * t.tw) + t.depth)

  let run_end t =
    let d = t.depth in
    lower_bound t d (t.tpos.(d) + 1) t.thi.(d) (key t + 1)

  let open_ t =
    let d = t.depth in
    let lo, hi =
      if d < 0 then (0, t.trows)
      else begin
        assert (not (at_end t));
        (t.tpos.(d), run_end t)
      end
    in
    let d' = d + 1 in
    t.depth <- d';
    t.tlo.(d') <- lo;
    t.thi.(d') <- hi;
    t.tpos.(d') <- lo

  let up t =
    assert (t.depth >= 0);
    t.depth <- t.depth - 1

  let next t = t.tpos.(t.depth) <- run_end t

  let seek t v =
    let d = t.depth in
    if (not (at_end t)) && key t < v then
      t.tpos.(d) <- lower_bound t d (t.tpos.(d) + 1) t.thi.(d) v
end

(* Leapfrog alignment of the iterators bound to one attribute: seek
   every iterator below the running maximum up to it until all agree on
   one key (true) or some iterator exhausts its run (false).  Each seek
   only moves forward, so the loop is linear in the runs' length. *)
let leapfrog_align ~stats its =
  let k = Array.length its in
  let alive = ref true and agree = ref false in
  while !alive && not !agree do
    let max_key = ref min_int in
    agree := true;
    for i = 0 to k - 1 do
      let it = its.(i) in
      if Trie.at_end it then alive := false
      else begin
        let v = Trie.key it in
        if !max_key <> min_int && v <> !max_key then agree := false;
        if v > !max_key then max_key := v
      end
    done;
    if !alive && not !agree then
      for i = 0 to k - 1 do
        stats.probes <- stats.probes + 1;
        Trie.seek its.(i) !max_key
      done
  done;
  !alive

(* [f] with every code replaced by its rank in value order, sorted.
   The map is a bijection, so the rows stay distinct. *)
let rank_space ~stats rank f =
  let w = f.width in
  let buf = Array.make (max 1 (f.rows * w)) 0 in
  for i = 0 to (f.rows * w) - 1 do
    buf.(i) <- rank.(Array.unsafe_get f.data i)
  done;
  let rows, data = sort_rows ~stats w f.rows buf in
  { f with rows; data = trim (rows * w) data; sorted = true }

(* The leapfrog DFS behind [generic_join] ([ranked = None]) and [topk]
   ([ranked = Some k]); [name] prefixes the [Invalid_argument] messages.

   Depth-first over the elimination order: at each level open the
   participating iterators one column deeper, walk the leapfrog
   intersection of their runs, and recurse under every common key.
   Codes flow straight from the packed rows into the output buffer — no
   per-tuple allocation anywhere on the path.  Assignments come out in
   lexicographic code order along [order].

   Ranked (top-k) enumeration: codes are interned in first-seen order,
   so code order says nothing about value order.  The fix is the decode
   path's rank trick run forwards: rank the dictionary's codes by value
   once, run the DFS over the frames remapped into rank space, and map
   each emitted rank back to its code.  Level keys then ascend in value
   order, emissions stream out in exactly [Tuple.compare] order (for
   [order] the sorted attributes), and the DFS stops dead once [k] rows
   are out — the work is bounded by the trie prefix the [k] results
   touch, not by the size of the full join.  [k ≤ 0] or an empty input
   frame answers before any work. *)
let leapfrog_join ~name ~ranked ?stats ~order frames =
  match frames with
  | [] -> invalid_arg (name ^ ": no frames")
  | f0 :: rest -> (
      List.iter
        (fun f ->
          if f.dict != f0.dict then
            invalid_arg (name ^ ": frames use different dictionaries"))
        rest;
      let stats = match stats with Some s -> s | None -> fresh_stats () in
      let out_scheme =
        List.fold_left
          (fun acc f -> Attr.Set.union acc f.scheme)
          Attr.Set.empty frames
      in
      let order_arr = Array.of_list order in
      let w = Array.length order_arr in
      if
        w <> Attr.Set.cardinal out_scheme
        || not (List.for_all (fun a -> Attr.Set.mem a out_scheme) order)
      then
        invalid_arg (name ^ ": order is not a permutation of the attributes");
      let out_attrs = Array.of_list (Attr.Set.elements out_scheme) in
      let frame rows data =
        {
          scheme = out_scheme;
          attrs = out_attrs;
          width = w;
          rows;
          data;
          sorted = true;
          dict = f0.dict;
        }
      in
      match ranked with
      | Some k when k <= 0 || List.exists (fun f -> f.rows = 0) frames ->
          frame 0 [||]
      | _ ->
          let prepare, decode, budget =
            match ranked with
            | None -> (Fun.id, None, max_int)
            | Some k ->
                let { Dict.rank; by_rank; _ } = Dict.order f0.dict in
                (rank_space ~stats rank, Some by_rank, k)
          in
          let tries =
            Array.of_list
              (List.map
                 (fun f -> Trie.of_frame ~stats ~order (prepare f))
                 frames)
          in
          (* Iterators participating at each level: the relations whose
             scheme carries that attribute, in frame-list order. *)
          let iters_at =
            Array.map
              (fun a ->
                Array.of_list
                  (List.filter
                     (fun t -> List.exists (Attr.equal a) (Trie.attrs t))
                     (Array.to_list tries)))
              order_arr
          in
          let lvl_of_col =
            Array.map
              (fun a ->
                let rec go i =
                  if Attr.equal order_arr.(i) a then i else go (i + 1)
                in
                go 0)
              out_attrs
          in
          let vals = Array.make (max 1 w) 0 in
          let b = buf_make (w * (min budget 64 + 1)) in
          let remaining = ref budget in
          let emit () =
            buf_reserve b w;
            let d = b.bdata and o = b.blen in
            (match decode with
            | None ->
                for j = 0 to w - 1 do
                  Array.unsafe_set d (o + j)
                    vals.(Array.unsafe_get lvl_of_col j)
                done
            | Some by_rank ->
                for j = 0 to w - 1 do
                  Array.unsafe_set d (o + j)
                    by_rank.(vals.(Array.unsafe_get lvl_of_col j))
                done);
            b.blen <- o + w;
            decr remaining
          in
          let rec go lv =
            let its = iters_at.(lv) in
            Array.iter Trie.open_ its;
            let ok = ref (leapfrog_align ~stats its) in
            while !ok do
              stats.probe_hits <- stats.probe_hits + 1;
              vals.(lv) <- Trie.key its.(0);
              if lv = w - 1 then emit () else go (lv + 1);
              if !remaining > 0 then begin
                Trie.next its.(0);
                ok := leapfrog_align ~stats its
              end
              else ok := false
            done;
            Array.iter Trie.up its
          in
          if w > 0 then go 0;
          (* Rows are already distinct; one sort in code space restores
             canonical order when the emission order differs from it. *)
          let rows, data = sort_rows ~stats w (b.blen / w) b.bdata in
          frame rows (trim (rows * w) data))

let generic_join ?stats ~order frames =
  leapfrog_join ~name:"Frame.generic_join" ~ranked:None ?stats ~order frames

let topk ?stats ~order ~k frames =
  leapfrog_join ~name:"Frame.topk" ~ranked:(Some k) ?stats ~order frames

(* ------------------------------------------------------------------ *)
(* Databases of frames                                                 *)

module Db = struct
  type frame = t

  type t = { ddict : Dict.t; frames : frame Scheme.Map.t }

  let of_database db =
    let c = Database.coded db in
    let ddict = Dict.of_sorted c.values in
    let frames =
      Scheme.Map.mapi
        (fun scheme (b : Coded.block) ->
          let attrs = Array.of_list (Attr.Set.elements scheme) in
          let width = Array.length attrs in
          {
            scheme;
            attrs;
            width;
            rows = b.rows;
            data = trim (b.rows * width) b.codes;
            sorted = true;
            dict = ddict;
          })
        c.blocks
    in
    { ddict; frames }

  let dict fdb = fdb.ddict
  let find fdb s = Scheme.Map.find s fdb.frames

  let join_schemes ?obs ?domains ?morsel ?stats fdb d =
    match Scheme.Set.elements d with
    | [] -> invalid_arg "Frame.Db.join_schemes: empty sub-database"
    | s :: rest ->
        (* Sorted scheme order — the same left-to-right fold as
           Database.join_all. *)
        List.fold_left
          (fun acc s' ->
            natural_join ?obs ?domains ?morsel ?stats acc
              (find fdb s'))
          (find fdb s) rest

  let join_all ?obs ?domains ?morsel ?stats fdb =
    join_schemes ?obs ?domains ?morsel ?stats fdb
      (Scheme.Map.fold (fun s _ acc -> Scheme.Set.add s acc) fdb.frames
         Scheme.Set.empty)

  (* ---------------------------------------------------------------- *)
  (* Counting a sub-database without joining it                       *)

  (* Counts are non-negative and saturate at [max_int]. *)
  let saturating_add a b =
    let s = a + b in
    if s < 0 then max_int else s

  let saturating_mul a b =
    if a = 0 || b = 0 then 0 else if a > max_int / b then max_int else a * b

  (* Everything a count needs.  Scheme [i] is the i-th scheme in
     [Scheme.compare] order, and [ear] holds its linking-attribute
     bitset (see {!Ear}); a count sets the ear search's live set to
     its own.  A count works on one slot per scheme: its rows, their
     weights and the column of each linking attribute, with [kpos.(i *
     k + j)] slot [i]'s columns shared with slot [j] in attribute
     order, so [kpos.(i * k + j)] and [kpos.(j * k + i)] line up as one
     key.  A merge replaces a slot, its bitset and its keys; [merged]
     flags those slots, and the next count restores them from
     [oslots], [obits] and [okpos].  The rest is scratch: the message's
     hash index ([head]/[next] chains over the ear's rows, [sum] per
     key group), grown when a merged slot outgrows it, and one
     bitset. *)
  type slot = {
    sdata : int array;
    swidth : int;
    srows : int;
    sweight : int array; (* written by the messages the slot receives *)
    scol : int array; (* column of linking attribute [b], or -1 *)
  }

  type counter = {
    ear : Ear.t;
    slots : slot array;
    oslots : slot array;
    obits : int array;
    kpos : int array array;
    okpos : int array array;
    mutable merged : int;
    mutable head : int array;
    mutable next : int array;
    mutable sum : int array;
    scratch : int array;
  }

  (* [f acc b] over the set bits [b] of the [words]-word bitset whose
     [w]-th word is [word w], in ascending order. *)
  let fold_bits words word f acc =
    let acc = ref acc in
    for w = 0 to words - 1 do
      let x = word w in
      if x <> 0 then
        for b = 0 to Sys.int_size - 1 do
          if x land (1 lsl b) <> 0 then acc := f !acc ((w * Sys.int_size) + b)
        done
    done;
    !acc

  (* The key columns slots [x] and [y] share, as [kpos.(x * k + y)] and
     [kpos.(y * k + x)]. *)
  let set_key c x y =
    let { Ear.k; words; bits; _ } = c.ear in
    let shared w = bits.((x * words) + w) land bits.((y * words) + w) in
    let n = fold_bits words shared (fun n _ -> n + 1) 0 in
    let kx = Array.make n 0 and ky = Array.make n 0 in
    let cx = c.slots.(x).scol and cy = c.slots.(y).scol in
    ignore
      (fold_bits words shared
         (fun t b ->
           kx.(t) <- cx.(b);
           ky.(t) <- cy.(b);
           t + 1)
         0);
    c.kpos.((x * k) + y) <- kx;
    c.kpos.((y * k) + x) <- ky

  let counter fdb =
    let cframes =
      Array.of_list (List.map snd (Scheme.Map.bindings fdb.frames))
    in
    let k = Array.length cframes in
    if k > Sys.int_size - 1 then
      invalid_arg "Frame.Db.counter: more relations than a mask holds";
    let ear = Ear.make (Array.map (fun f -> f.scheme) cframes) in
    let slots =
      Array.map
        (fun f ->
          let scol = Array.make (Ear.nlinks ear) (-1) in
          Array.iteri
            (fun col a ->
              match Ear.link ear a with -1 -> () | b -> scol.(b) <- col)
            f.attrs;
          {
            sdata = f.data;
            swidth = f.width;
            srows = f.rows;
            sweight = Array.make (max 1 f.rows) 0;
            scol;
          })
        cframes
    in
    let largest = Array.fold_left (fun m f -> max m f.rows) 1 cframes in
    let c =
      {
        ear;
        slots;
        oslots = Array.copy slots;
        obits = Array.copy ear.bits;
        kpos = Array.make (k * k) [||];
        okpos = Array.make (k * k) [||];
        merged = 0;
        head = Array.make (pow2_at_least (2 * largest)) (-1);
        next = Array.make largest (-1);
        sum = Array.make largest 0;
        scratch = Array.make ear.words 0;
      }
    in
    for x = 0 to k - 1 do
      for y = x + 1 to k - 1 do
        set_key c x y
      done
    done;
    Array.blit c.kpos 0 c.okpos 0 (k * k);
    c

  (* Put every slot a merge replaced back to its scheme. *)
  let restore c =
    let { Ear.k; words; bits; _ } = c.ear in
    for i = 0 to k - 1 do
      if c.merged land (1 lsl i) <> 0 then begin
        c.slots.(i) <- c.oslots.(i);
        Array.blit c.obits (i * words) bits (i * words) words;
        for x = 0 to k - 1 do
          c.kpos.((i * k) + x) <- c.okpos.((i * k) + x);
          c.kpos.((x * k) + i) <- c.okpos.((x * k) + i)
        done
      end
    done;
    c.merged <- 0

  (* Room in the message index for an ear of [n] rows. *)
  let reserve c n =
    if n > Array.length c.next then begin
      c.head <- Array.make (pow2_at_least (2 * n)) (-1);
      c.next <- Array.make n (-1);
      c.sum <- Array.make n 0
    end

  (* Ear [e] sends [p] its message: [e]'s rows grouped by the key they
     share with [p], each group's weight summed, and [p]'s row weights
     multiplied by their group's sum (0 when no group matches).  A row
     of a slot that has received no message weighs 1.  Returns whether
     some row of [p] keeps a non-zero weight. *)
  let send c ~weighted e p =
    let se = c.slots.(e) and sp = c.slots.(p) in
    let de = se.sdata and we = se.sweight and width = se.swidth in
    let k = c.ear.k in
    let ke = c.kpos.((e * k) + p) and kp = c.kpos.((p * k) + e) in
    let e_weighted = weighted land (1 lsl e) <> 0
    and p_weighted = weighted land (1 lsl p) <> 0 in
    reserve c se.srows;
    let head = c.head and next = c.next and sum = c.sum in
    let bmask = pow2_at_least (2 * se.srows) - 1 in
    Array.fill head 0 (bmask + 1) (-1);
    for r = 0 to se.srows - 1 do
      let x = if e_weighted then Array.unsafe_get we r else 1 in
      if x > 0 then begin
        let b = r * width in
        let h = key_hash de b ke land bmask in
        let g = ref (Array.unsafe_get head h) in
        while !g >= 0 && not (keys_match de (!g * width) ke de b ke) do
          g := Array.unsafe_get next !g
        done;
        if !g >= 0 then
          Array.unsafe_set sum !g (saturating_add (Array.unsafe_get sum !g) x)
        else begin
          Array.unsafe_set sum r x;
          insert head next r h
        end
      end
    done;
    let dp = sp.sdata and wp = sp.sweight in
    let alive = ref false in
    for q = 0 to sp.srows - 1 do
      let y = if p_weighted then Array.unsafe_get wp q else 1 in
      let y =
        if y = 0 then 0
        else begin
          let b = q * sp.swidth in
          let h = key_hash dp b kp land bmask in
          let g = ref (Array.unsafe_get head h) in
          while !g >= 0 && not (keys_match dp b kp de (!g * width) ke) do
            g := Array.unsafe_get next !g
          done;
          if !g >= 0 then saturating_mul y (Array.unsafe_get sum !g) else 0
        end
      in
      Array.unsafe_set wp q y;
      if y > 0 then alive := true
    done;
    !alive

  let rec lowest_index m i =
    if m land (1 lsl i) <> 0 then i else lowest_index m (i + 1)

  (* The merge partner of [i] in a stuck [live]: the live slot linked
     to it with the fewest rows, the lowest on a tie.  One exists: a
     slot linked to no other live slot is an ear. *)
  let partner c live i =
    let { Ear.k; words; bits; _ } = c.ear in
    let linked j =
      let rec go w =
        w < words
        && (bits.((i * words) + w) land bits.((j * words) + w) <> 0
           || go (w + 1))
      in
      go 0
    in
    let best = ref (-1) in
    for j = 0 to k - 1 do
      if j <> i && live land (1 lsl j) <> 0 && linked j
         && (!best < 0 || c.slots.(j).srows < c.slots.(!best).srows)
      then best := j
    done;
    !best

  let grown a n fill =
    let b = Array.make (max n (2 * Array.length a)) fill in
    Array.blit a 0 b 0 (Array.length a);
    b

  (* Slots [i] and [j] of [live] become one: joined on their shared
     key, each output row weighing the product of its two rows'
     weights, projected onto the linking attributes some other live
     slot carries, and rows that project alike summed into one.  The
     merged bag replaces slot [i] (its bitset and its keys with the
     other live slots too).  Returns whether it has a row. *)
  let merge c ~live ~weighted i j =
    let { Ear.k; words; bits; _ } = c.ear in
    let si = c.slots.(i) and sj = c.slots.(j) in
    let keep = c.scratch
    and others = live land lnot ((1 lsl i) lor (1 lsl j)) in
    for w = 0 to words - 1 do
      let carried = ref 0 in
      for x = 0 to k - 1 do
        if others land (1 lsl x) <> 0 then
          carried := !carried lor bits.((x * words) + w)
      done;
      keep.(w) <-
        (bits.((i * words) + w) lor bits.((j * words) + w)) land !carried
    done;
    let keep_word w = keep.(w) in
    let width = fold_bits words keep_word (fun n _ -> n + 1) 0 in
    (* Output column [t] reads column [from.(t)] of [i] when it is
       non-negative, else column [-from.(t) - 1] of [j]. *)
    let from = Array.make width 0 in
    ignore
      (fold_bits words keep_word
         (fun t b ->
           from.(t) <-
             (if si.scol.(b) >= 0 then si.scol.(b) else -sj.scol.(b) - 1);
           t + 1)
         0);
    let ki = c.kpos.((i * k) + j) and kj = c.kpos.((j * k) + i) in
    let di = si.sdata and dj = sj.sdata in
    let wi = si.swidth and wj = sj.swidth in
    let i_weighted = weighted land (1 lsl i) <> 0
    and j_weighted = weighted land (1 lsl j) <> 0 in
    let wti = si.sweight and wtj = sj.sweight in
    (* [j]'s rows of non-zero weight, indexed on the key. *)
    reserve c sj.srows;
    let head = c.head and next = c.next in
    let bmask = pow2_at_least (2 * sj.srows) - 1 in
    Array.fill head 0 (bmask + 1) (-1);
    for r = 0 to sj.srows - 1 do
      if (not j_weighted) || Array.unsafe_get wtj r > 0 then
        insert head next r (key_hash dj (r * wj) kj land bmask)
    done;
    (* The merged rows, [n] of them, in [out] with their summed weights
       in [ow] and a hash index of their own ([ghead]/[gnext]), grown
       as rows arrive. *)
    (* Off only under the planted [cost.count_merge] defect, which keeps
       a group's first weight instead of the sum.  Never active outside
       an explicit failpoint activation. *)
    let sums =
      not
        (Mj_failpoint.Failpoint.fire Mj_failpoint.Failpoint.Cost_count_merge)
    in
    let ident = Array.init width Fun.id in
    let cap = max si.srows sj.srows in
    let out = ref (Array.make (max 1 (cap * width)) 0)
    and ow = ref (Array.make cap 0)
    and gnext = ref (Array.make cap (-1))
    and ghead = ref (Array.make (pow2_at_least (2 * cap)) (-1))
    and n = ref 0 in
    let rehash () =
      let gmask = (2 * Array.length !ghead) - 1 in
      ghead := Array.make (gmask + 1) (-1);
      for g = 0 to !n - 1 do
        insert !ghead !gnext g (key_hash !out (g * width) ident land gmask)
      done
    in
    for q = 0 to si.srows - 1 do
      let y = if i_weighted then Array.unsafe_get wti q else 1 in
      if y > 0 then begin
        let bq = q * wi in
        let r = ref (Array.unsafe_get head (key_hash di bq ki land bmask)) in
        while !r >= 0 do
          let br = !r * wj in
          if keys_match di bq ki dj br kj then begin
            let x =
              if j_weighted then saturating_mul y (Array.unsafe_get wtj !r)
              else y
            in
            let o = !n * width in
            if o + width > Array.length !out then
              out := grown !out (o + width) 0;
            let d = !out in
            for t = 0 to width - 1 do
              let s = Array.unsafe_get from t in
              Array.unsafe_set d (o + t)
                (if s >= 0 then Array.unsafe_get di (bq + s)
                 else Array.unsafe_get dj (br - s - 1))
            done;
            let gmask = Array.length !ghead - 1 in
            let h = key_hash d o ident land gmask in
            let g = ref (Array.unsafe_get !ghead h) in
            while !g >= 0 && not (keys_match d (!g * width) ident d o ident) do
              g := Array.unsafe_get !gnext !g
            done;
            if !g >= 0 then begin
              if sums then
                Array.unsafe_set !ow !g
                  (saturating_add (Array.unsafe_get !ow !g) x)
            end
            else begin
              if !n >= Array.length !ow then begin
                ow := grown !ow (!n + 1) 0;
                gnext := grown !gnext (!n + 1) (-1)
              end;
              Array.unsafe_set !ow !n x;
              insert !ghead !gnext !n h;
              incr n;
              if 2 * !n > Array.length !ghead then rehash ()
            end
          end;
          r := Array.unsafe_get next !r
        done
      end
    done;
    !n > 0
    && begin
         let scol = Array.make (Array.length si.scol) (-1) in
         ignore (fold_bits words keep_word (fun t b -> scol.(b) <- t; t + 1) 0);
         c.slots.(i) <-
           { sdata = !out; swidth = width; srows = !n; sweight = !ow; scol };
         Array.blit keep 0 bits (i * words) words;
         c.merged <- c.merged lor (1 lsl i);
         for x = 0 to k - 1 do
           if others land (1 lsl x) <> 0 then set_key c i x
         done;
         true
       end

  let count c mask =
    let k = c.ear.k in
    if mask <= 0 || mask lsr k <> 0 then
      invalid_arg "Frame.Db.count: mask outside the database";
    if c.merged <> 0 then restore c;
    let rec reduce live weighted first =
      if live land (live - 1) = 0 then begin
        let s = c.slots.(lowest_index live 0) in
        if weighted land live = 0 then s.srows
        else begin
          let n = ref 0 in
          for q = 0 to s.srows - 1 do
            n := saturating_add !n (Array.unsafe_get s.sweight q)
          done;
          !n
        end
      end
      else begin
        c.ear.live.(0) <- live;
        match Ear.find c.ear with
        | -1 ->
            (* A cyclic core: merge two of its slots, then look for
               ears again. *)
            let i = lowest_index live 0 in
            let j = partner c live i in
            if merge c ~live ~weighted i j then
              reduce (live land lnot (1 lsl j)) (weighted lor (1 lsl i)) first
            else 0
        | ep ->
            let e = ep / k and p = ep mod k in
            let live = live land lnot (1 lsl e) in
            if first
               && Mj_failpoint.Failpoint.fire
                    Mj_failpoint.Failpoint.Cost_count_message
            then
              (* The planted [cost.count_message] defect: the first
                 ear's message is lost, so its parent never receives
                 that child's factor.  Never active outside an
                 explicit failpoint activation. *)
              reduce live weighted false
            else if send c ~weighted e p then
              reduce live (weighted lor (1 lsl p)) false
            else 0
      end
    in
    reduce mask 0 true

  let generic_join ?stats fdb ~order d =
    match Scheme.Set.elements d with
    | [] -> invalid_arg "Frame.Db.generic_join: empty sub-database"
    | schemes -> generic_join ?stats ~order (List.map (find fdb) schemes)
end

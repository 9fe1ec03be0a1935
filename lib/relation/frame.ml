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

(* ------------------------------------------------------------------ *)
(* Canonical order                                                     *)

let pow2_at_least n =
  let p = ref 1 in
  while !p < n do
    p := 2 * !p
  done;
  !p

(* Sort-unique [nrows] rows of width [w].  Rows that pass the
   already-sorted scan are only trimmed; the rest go through the sort
   and are counted in [stats.sorted_rows]. *)
let sort_rows ?stats w nrows data =
  match stats with
  | None -> Coded.canonicalize w nrows data
  | Some st ->
      Coded.canonicalize
        ~on_sort:(fun n -> st.sorted_rows <- st.sorted_rows + n)
        w nrows data

(* The first [len] ints of a scratch buffer as an exact-length row
   store: the buffer itself when it fits exactly, else a trimmed copy. *)
let trim len (a : int array) =
  if Array.length a = len then a else Array.sub a 0 len

(* The one place order is established: a sorted frame is returned as
   it is, an unsorted one is sorted once into a fresh frame.  Rows are
   already distinct, so the count cannot change. *)
let in_order ?stats f =
  if f.sorted then f
  else begin
    let rows, data = sort_rows ?stats f.width f.rows f.data in
    assert (rows = f.rows);
    { f with data = trim (rows * f.width) data; sorted = true }
  end

let sort ?stats f =
  if (not f.sorted)
     && Mj_failpoint.Failpoint.fire Mj_failpoint.Failpoint.Frame_skip_root_sort
  then
    (* The planted mutation for [mjoin fuzz --self-test]: claim the
       order without establishing it, so decode and digest read the
       rows as emitted.  Never active outside an explicit failpoint
       activation. *)
    { f with sorted = true }
  else in_order ?stats f

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

(* The value order of a frame's rows — the prelude shared by decode and
   digest, so the two cannot disagree on row order.  When interning
   assigned codes in value order, code order is value order and the
   rows only need to be in order ([in_order]: nothing to do on a sorted
   frame).  Otherwise remap every cell to its value rank in the
   dictionary's (cached) order and sort that copy — one sort whether or
   not the frame was sorted by code.  Rank is injective, so rows stay
   distinct and the row count is unchanged.  For same-scheme tuples
   [Tuple.compare] is exactly lexicographic value order over the sorted
   attribute columns, so the rows come out in [Tuple.compare] order.

   Returns the dictionary's [by_rank] (rank -> code) and the rows as
   row-major ranks in that order. *)
let value_order f =
  let o = Dict.order f.dict in
  if o.identity then (o.by_rank, (in_order f).data)
  else begin
    let ncells = f.rows * f.width in
    let ranked = Array.make ncells 0 in
    for c = 0 to ncells - 1 do
      ranked.(c) <- o.rank.(Array.unsafe_get f.data c)
    done;
    let _, sorted = sort_rows f.width f.rows ranked in
    (o.by_rank, sorted)
  end

let to_relation f =
  (* Rows are distinct and over [f.scheme] by construction: each tuple
     is one value array over a shared header, so [Relation.of_array]'s
     scheme check is a pointer test per tuple, and the rows arrive in
     [Tuple.compare] order ([value_order]), so its sort is one
     ascending scan. *)
  if f.rows = 0 then Relation.empty f.scheme
  else begin
    let w = f.width in
    let by_rank, ranks = value_order f in
    let value cell = Dict.value f.dict by_rank.(ranks.(cell)) in
    let header = Tuple.header f.scheme in
    let tuples = Array.make f.rows Tuple.empty in
    for r = 0 to f.rows - 1 do
      let base = r * w in
      let vals = Array.make w (value base) in
      for j = 1 to w - 1 do
        vals.(j) <- value (base + j)
      done;
      tuples.(r) <- Tuple.of_values header vals
    done;
    Relation.of_array f.scheme tuples
  end

(* [Relation.digest (to_relation f)] without building the relation:
   the same stream, fed from code buffers in [value_order], with each
   value rendered once per dictionary. *)
let digest f =
  let s = Fnv.result f.scheme in
  if f.rows > 0 then begin
    let by_rank, ranks = value_order f in
    let text = Dict.text f.dict in
    for r = 0 to f.rows - 1 do
      let base = r * f.width in
      for j = 0 to f.width - 1 do
        Fnv.cell_text s text.(by_rank.(ranks.(base + j)))
      done;
      Fnv.end_row s
    done
  end;
  Fnv.digest s

let equal f1 f2 =
  Attr.Set.equal f1.scheme f2.scheme
  && f1.rows = f2.rows
  && (in_order f1).data = (in_order f2).data

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
   building and probing allocate nothing beyond two int arrays.  Build
   rows are inserted in ascending order, so each chain lists its rows
   in descending order whoever inserts them. *)
let[@inline] insert head next k h =
  Array.unsafe_set next k (Array.unsafe_get head h);
  Array.unsafe_set head h k

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

(* Hash join: index the smaller frame, probe the larger in morsels of
   [morsel] rows.  It runs on the pool iff the probe side spans at
   least two morsels and the pool grants more than one worker;
   otherwise the whole join is one inline build and one probe into one
   buffer.  On the pool the build takes two deterministic phases —
   (A) key hashes into a scratch array, one slice per task, then (B)
   the chains threaded over disjoint bucket ranges, one task per range
   scanning the rows in ascending order; a row lands in one bucket, so
   each [head] and [next] entry has one writer and needs no lock — and
   (C) the probe morsels are claimed off the shared queue, each into a
   private buffer, and merged in morsel-index order.  The chains and
   hence the emitted rows are the same on either path, at any worker
   count. *)
let hash_join ~obs ~domains ~morsel ~stats spec f1 f2 =
  let swap = f1.rows > f2.rows in
  let bf, bpos, pf, ppos =
    if swap then (f2, spec.k2pos, f1, spec.k1pos)
    else (f1, spec.k1pos, f2, spec.k2pos)
  in
  let nb = bf.rows and np = pf.rows in
  let bw = bf.width and w = spec.out_width in
  let bmask = pow2_at_least (2 * max 1 nb) - 1 in
  (* The index is allocated where it is built: on the pool path, after
     phase A's scratch pass. *)
  let index () = (Array.make (bmask + 1) (-1), Array.make (max 1 nb) (-1)) in
  let nmor = (np + morsel - 1) / morsel in
  let workers = min (Pool.workers domains) nmor in
  if workers <= 1 then begin
    let head, next = index () in
    for k = 0 to nb - 1 do
      insert head next k (key_hash bf.data (k * bw) bpos land bmask)
    done;
    let b = buf_make (w * (np + 16)) in
    probe_range ~stats ~swap spec head next bmask bf bpos pf ppos b 0 np;
    stats.partitions <- stats.partitions + 1;
    stats.morsels <- stats.morsels + 1;
    (b.blen / w, b.bdata)
  end
  else begin
    let hashes = Array.make (max 1 nb) 0 in
    let nh = (nb + morsel - 1) / morsel in
    ignore
      (Pool.run ~domains:workers ~chunk:(claim_chunk nh workers)
         (Array.init nh (fun t () ->
              for k = t * morsel to min nb ((t + 1) * morsel) - 1 do
                Array.unsafe_set hashes k (key_hash bf.data (k * bw) bpos)
              done)));
    let head, next = index () in
    let bparts = min (bmask + 1) (pow2_at_least (2 * workers)) in
    let bspan = (bmask + 1) / bparts in
    stats.partitions <- stats.partitions + bparts;
    ignore
      (Pool.run_traced ~obs ~domains:workers
         (Array.init bparts (fun p child ->
              let lo = p * bspan and hi = ((p + 1) * bspan) - 1 in
              let build () =
                for k = 0 to nb - 1 do
                  let h = Array.unsafe_get hashes k land bmask in
                  if h >= lo && h <= hi then insert head next k h
                done
              in
              if Obs.enabled child then
                Obs.span child
                  ~attrs:
                    [
                      ("part", Mj_obs.Json.int p);
                      ("buckets", Mj_obs.Json.int bspan);
                    ]
                  "build-part" build
              else build ())));
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
    let bmask = pow2_at_least (2 * max 1 f2.rows) - 1 in
    let head = Array.make (bmask + 1) (-1) in
    let next = Array.make (max 1 f2.rows) (-1) in
    for i = 0 to f2.rows - 1 do
      let h = key_hash f2.data (i * f2.width) k2pos land bmask in
      next.(i) <- head.(h);
      head.(h) <- i
    done;
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
      if identity then (in_order ?stats f).data
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

  (* Everything a count needs that depends on the database alone, built
     once: scheme [i] is the i-th scheme in [Scheme.compare] order, its
     linking attributes (those of the database's attributes that two or
     more schemes carry) are a bitset of [words] ints at [bits.(i *
     words)], and [kpos.(i * k + j)] holds scheme [i]'s columns shared
     with scheme [j], in attribute order, so [kpos.(i * k + j)] and
     [kpos.(j * k + i)] line up as one key.  The rest is scratch a mask
     overwrites: per-scheme row weights, the message's hash index
     ([head]/[next] chains over the ear's rows, [sum] per key group)
     sized to the largest relation, and one bitset. *)
  type counter = {
    cframes : frame array;
    k : int;
    words : int;
    bits : int array;
    kpos : int array array;
    weight : int array array;
    head : int array;
    next : int array;
    sum : int array;
    scratch : int array;
  }

  let counter fdb =
    let cframes =
      Array.of_list (List.map snd (Scheme.Map.bindings fdb.frames))
    in
    let k = Array.length cframes in
    if k > Sys.int_size - 1 then
      invalid_arg "Frame.Db.counter: more relations than a mask holds";
    let occurs =
      Array.fold_left
        (fun m f ->
          Array.fold_left
            (fun m a ->
              Attr.Map.update a
                (fun n -> Some (1 + Option.value n ~default:0))
                m)
            m f.attrs)
        Attr.Map.empty cframes
    in
    (* Bit [b] of a bitset is the [b]-th linking attribute. *)
    let linking, nlinking =
      Attr.Map.fold
        (fun a n (m, b) ->
          if n >= 2 then (Attr.Map.add a b m, b + 1) else (m, b))
        occurs (Attr.Map.empty, 0)
    in
    let words = max 1 ((nlinking + Sys.int_size - 1) / Sys.int_size) in
    let bits = Array.make (k * words) 0 in
    Array.iteri
      (fun i f ->
        Array.iter
          (fun a ->
            match Attr.Map.find_opt a linking with
            | Some b ->
                let w = (i * words) + (b / Sys.int_size) in
                bits.(w) <- bits.(w) lor (1 lsl (b mod Sys.int_size))
            | None -> ())
          f.attrs)
      cframes;
    let kpos =
      Array.init (k * k) (fun ij ->
          let fi = cframes.(ij / k) and fj = cframes.(ij mod k) in
          Array.of_list
            (List.map (col_of fi)
               (Attr.Set.elements (Attr.Set.inter fi.scheme fj.scheme))))
    in
    let largest = Array.fold_left (fun m f -> max m f.rows) 1 cframes in
    {
      cframes;
      k;
      words;
      bits;
      kpos;
      weight = Array.map (fun f -> Array.make (max 1 f.rows) 0) cframes;
      head = Array.make (pow2_at_least (2 * largest)) (-1);
      next = Array.make largest (-1);
      sum = Array.make largest 0;
      scratch = Array.make words 0;
    }

  (* Scheme [e] is an ear of [live] when every linking attribute it
     shares with another live scheme lies in one live scheme [p]; the
     first such [p] is returned, or [-1]. *)
  let parent c live e =
    let words = c.words in
    for w = 0 to words - 1 do
      let others = ref 0 in
      for j = 0 to c.k - 1 do
        if j <> e && live land (1 lsl j) <> 0 then
          others := !others lor c.bits.((j * words) + w)
      done;
      c.scratch.(w) <- c.bits.((e * words) + w) land !others
    done;
    let rec find p =
      if p >= c.k then -1
      else if p = e || live land (1 lsl p) = 0 then find (p + 1)
      else begin
        let covered = ref true in
        for w = 0 to words - 1 do
          if c.scratch.(w) land lnot c.bits.((p * words) + w) <> 0 then
            covered := false
        done;
        if !covered then p else find (p + 1)
      end
    in
    find 0

  (* The first ear [e] of [live] and its parent [p], as [e * k + p],
     or [-1] when every live scheme is stuck (a cyclic core). *)
  let rec ear c live e =
    if e >= c.k then -1
    else if live land (1 lsl e) <> 0 then
      match parent c live e with -1 -> ear c live (e + 1) | p -> (e * c.k) + p
    else ear c live (e + 1)

  (* Ear [e] sends [p] its message: [e]'s rows grouped by the key they
     share with [p], each group's weight summed, and [p]'s row weights
     multiplied by their group's sum (0 when no group matches).  A row
     of a scheme that has received no message weighs 1.  Returns
     whether some row of [p] keeps a non-zero weight. *)
  let send c ~weighted e p =
    let fe = c.cframes.(e) and fp = c.cframes.(p) in
    let ke = c.kpos.((e * c.k) + p) and kp = c.kpos.((p * c.k) + e) in
    let we = c.weight.(e) and wp = c.weight.(p) in
    let e_weighted = weighted land (1 lsl e) <> 0
    and p_weighted = weighted land (1 lsl p) <> 0 in
    let head = c.head and next = c.next and sum = c.sum in
    let bmask = pow2_at_least (2 * fe.rows) - 1 in
    Array.fill head 0 (bmask + 1) (-1);
    for r = 0 to fe.rows - 1 do
      let x = if e_weighted then Array.unsafe_get we r else 1 in
      if x > 0 then begin
        let b = r * fe.width in
        let h = key_hash fe.data b ke land bmask in
        let g = ref (Array.unsafe_get head h) in
        while
          !g >= 0 && not (keys_match fe.data (!g * fe.width) ke fe.data b ke)
        do
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
    let alive = ref false in
    for q = 0 to fp.rows - 1 do
      let y = if p_weighted then Array.unsafe_get wp q else 1 in
      let y =
        if y = 0 then 0
        else begin
          let b = q * fp.width in
          let h = key_hash fp.data b kp land bmask in
          let g = ref (Array.unsafe_get head h) in
          while
            !g >= 0
            && not (keys_match fp.data b kp fe.data (!g * fe.width) ke)
          do
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

  (* A mask with no ear left: join its schemes with [natural_join],
     each step linked to the schemes joined so far when one is. *)
  let join_count c mask =
    let words = c.words and joined = c.scratch in
    let first = lowest_index mask 0 in
    Array.blit c.bits (first * words) joined 0 words;
    let linked j =
      let rec go w =
        w < words
        && (c.bits.((j * words) + w) land joined.(w) <> 0 || go (w + 1))
      in
      go 0
    in
    let rec pick rest j =
      if j >= c.k then lowest_index rest 0
      else if rest land (1 lsl j) <> 0 && linked j then j
      else pick rest (j + 1)
    in
    let rec go acc rest =
      if rest = 0 then acc.rows
      else begin
        let j = pick rest 0 in
        for w = 0 to words - 1 do
          joined.(w) <- joined.(w) lor c.bits.((j * words) + w)
        done;
        go (natural_join acc c.cframes.(j)) (rest land lnot (1 lsl j))
      end
    in
    go c.cframes.(first) (mask land lnot (1 lsl first))

  let count c mask =
    if mask <= 0 || mask lsr c.k <> 0 then
      invalid_arg "Frame.Db.count: mask outside the database";
    let rec reduce live weighted first =
      if live land (live - 1) = 0 then begin
        let r = lowest_index live 0 in
        if weighted land live = 0 then c.cframes.(r).rows
        else begin
          let w = c.weight.(r) and n = ref 0 in
          for q = 0 to c.cframes.(r).rows - 1 do
            n := saturating_add !n (Array.unsafe_get w q)
          done;
          !n
        end
      end
      else
        match ear c live 0 with
        | -1 -> join_count c mask
        | ep ->
            let e = ep / c.k and p = ep mod c.k in
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
    in
    reduce mask 0 true

  let generic_join ?stats fdb ~order d =
    match Scheme.Set.elements d with
    | [] -> invalid_arg "Frame.Db.generic_join: empty sub-database"
    | schemes -> generic_join ?stats ~order (List.map (find fdb) schemes)
end

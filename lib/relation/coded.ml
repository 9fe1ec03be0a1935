(* Coded databases: one value-ordered dictionary plus a canonical code
   buffer per scheme.  See coded.mli for the contract. *)

module Dict = struct
  type t = {
    values : Value.t array; (* strictly ascending: code [c] is [values.(c)] *)
    text : string array option Atomic.t; (* code -> Value.to_string *)
  }

  let of_sorted values =
    for c = 1 to Array.length values - 1 do
      if Value.compare values.(c - 1) values.(c) >= 0 then
        invalid_arg "Frame.Dict.of_sorted: values not strictly ascending"
    done;
    { values; text = Atomic.make None }

  let size d = Array.length d.values

  (* Binary search for the first code whose value is not below [v]. *)
  let code d v =
    let lo = ref 0 and hi = ref (Array.length d.values) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if Value.compare d.values.(mid) v < 0 then lo := mid + 1 else hi := mid
    done;
    if !lo < Array.length d.values && Value.equal d.values.(!lo) v then Some !lo
    else None

  let value d c =
    if c < 0 || c >= Array.length d.values then
      invalid_arg "Frame.Dict.value: code out of range";
    d.values.(c)

  (* Computed on first use and kept: the dictionary never changes, so
     a warm one (the serve daemon's) renders its values once, not once
     per query.  Concurrent readers may race to fill the cache; each
     computes the same array and the atomic publishes a whole one. *)
  let text d =
    match Atomic.get d.text with
    | Some t -> t
    | None ->
        let t = Array.map Value.to_string d.values in
        Atomic.set d.text (Some t);
        t
end

(* ------------------------------------------------------------------ *)
(* Canonical form                                                      *)

(* Lexicographic comparison of rows [i] and [j] on their columns from
   [from] on: a plain loop, so the scans and sorts below allocate
   nothing per row. *)
let row_compare data w from i j =
  let bi = i * w and bj = j * w in
  let k = ref from and c = ref 0 in
  while !c = 0 && !k < w do
    let a : int = data.(bi + !k) and b : int = data.(bj + !k) in
    c := if a < b then -1 else if a > b then 1 else 0;
    incr k
  done;
  !c

(* True iff the first [nrows] rows are already strictly increasing —
   the common case for relation states coded in value order.  One
   O(rows * w) scan that lets [canonicalize] and [order] skip the
   sort. *)
let sorted_distinct w nrows data =
  let i = ref 1 in
  while !i < nrows && row_compare data w 0 (!i - 1) !i < 0 do
    incr i
  done;
  !i >= nrows

(* Bits needed to write [n] (0 for 0). *)
let bits n =
  let b = ref 0 in
  while n lsr !b > 0 do
    incr b
  done;
  !b

(* The largest code in each column.  Its bounds-checked reads vouch
   for the unchecked ones of the sorts below. *)
let column_max w nrows data =
  let maxc = Array.make w 0 in
  for i = 0 to nrows - 1 do
    let base = i * w in
    for c = 0 to w - 1 do
      let v = data.(base + c) in
      if v > Array.unsafe_get maxc c then Array.unsafe_set maxc c v
    done
  done;
  maxc

(* Rows that fit one int: pack each row into a key (column 0 most
   significant, [widths.(c)] bits per column), so key order is row
   order; LSD-radix-sort the keys [digit] bits at a time; drop adjacent
   duplicates; unpack.  The digit is sized from the data — at most 11
   bits, and no wider than the row count or the key need — so a handful
   of rows never pays for a 2^11-bucket histogram. *)
let sort_packed w nrows data widths total =
  let keys = Array.make nrows 0 in
  for i = 0 to nrows - 1 do
    let base = i * w and k = ref 0 in
    for c = 0 to w - 1 do
      k := (!k lsl Array.unsafe_get widths c) lor Array.unsafe_get data (base + c)
    done;
    Array.unsafe_set keys i !k
  done;
  let digit = max 1 (min 11 (min (bits nrows) total)) in
  let buckets = 1 lsl digit and mask = (1 lsl digit) - 1 in
  let count = Array.make buckets 0 in
  let src = ref keys and dst = ref (Array.make nrows 0) in
  let shift = ref 0 in
  while !shift < total do
    let s = !src and d = !dst and sh = !shift in
    Array.fill count 0 buckets 0;
    for i = 0 to nrows - 1 do
      let b = (Array.unsafe_get s i lsr sh) land mask in
      Array.unsafe_set count b (Array.unsafe_get count b + 1)
    done;
    let acc = ref 0 in
    for b = 0 to buckets - 1 do
      let n = Array.unsafe_get count b in
      Array.unsafe_set count b !acc;
      acc := !acc + n
    done;
    for i = 0 to nrows - 1 do
      let k = Array.unsafe_get s i in
      let b = (k lsr sh) land mask in
      let p = Array.unsafe_get count b in
      Array.unsafe_set d p k;
      Array.unsafe_set count b (p + 1)
    done;
    src := d;
    dst := s;
    shift := sh + digit
  done;
  let sorted = !src in
  let kept = ref 1 in
  for i = 1 to nrows - 1 do
    let k = Array.unsafe_get sorted i in
    if k <> Array.unsafe_get sorted (!kept - 1) then begin
      Array.unsafe_set sorted !kept k;
      incr kept
    end
  done;
  let out = Array.make (!kept * w) 0 in
  for i = 0 to !kept - 1 do
    let k = ref (Array.unsafe_get sorted i) in
    for c = w - 1 downto 0 do
      let b = Array.unsafe_get widths c in
      Array.unsafe_set out ((i * w) + c) (!k land ((1 lsl b) - 1));
      k := !k lsr b
    done
  done;
  (!kept, out)

(* ------------------------------------------------------------------ *)
(* Row order                                                           *)

(* The bucket finishers order [perm.(lo .. hi - 1)] on columns 1 and
   up (the bucket shares column 0) and return the row comparisons they
   made.  Buckets of up to [small_bucket] rows take an insertion sort,
   which is the cheapest on the one- to few-row buckets of most
   leading columns; larger ones an in-place heap sort, so a leading
   column that holds one code in most rows costs O(b log b), never
   O(b²).  Neither allocates. *)
let small_bucket = 16

let insertion data w perm lo hi =
  let made = ref 0 in
  for i = lo + 1 to hi - 1 do
    let x = perm.(i) in
    let j = ref (i - 1) and moving = ref true in
    while !moving && !j >= lo do
      incr made;
      if row_compare data w 1 perm.(!j) x > 0 then begin
        perm.(!j + 1) <- perm.(!j);
        decr j
      end
      else moving := false
    done;
    perm.(!j + 1) <- x
  done;
  !made

(* Sift [x] down from slot [i] of the [n]-slot max-heap held in
   [perm.(lo ..)]. *)
let sift_down data w perm lo n i x =
  let i = ref i and made = ref 0 and sifting = ref true in
  while !sifting do
    let l = (2 * !i) + 1 in
    if l >= n then sifting := false
    else begin
      let child =
        if l + 1 < n then begin
          incr made;
          if row_compare data w 1 perm.(lo + l + 1) perm.(lo + l) > 0
          then l + 1
          else l
        end
        else l
      in
      incr made;
      if row_compare data w 1 perm.(lo + child) x > 0 then begin
        perm.(lo + !i) <- perm.(lo + child);
        i := child
      end
      else sifting := false
    end
  done;
  perm.(lo + !i) <- x;
  !made

let heapsort data w perm lo hi =
  let n = hi - lo and made = ref 0 in
  for i = (n / 2) - 1 downto 0 do
    made := !made + sift_down data w perm lo n i perm.(lo + i)
  done;
  for last = n - 1 downto 1 do
    let x = perm.(lo + last) in
    perm.(lo + last) <- perm.(lo);
    made := !made + sift_down data w perm lo last 0 x
  done;
  !made

(* The sort behind [order]: one counting pass on column 0, then every
   multi-row bucket finished on the columns after it. *)
let permutation ?compares w nrows data =
  (* [count.(k)] becomes the start of bucket [k], then, as rows are
     placed, its end. *)
  let top = ref 0 in
  for i = 0 to nrows - 1 do
    let k = data.(i * w) in
    if k > !top then top := k
  done;
  let count = Array.make (!top + 2) 0 in
  for i = 0 to nrows - 1 do
    let k = data.(i * w) + 1 in
    count.(k) <- count.(k) + 1
  done;
  for k = 1 to !top do
    count.(k) <- count.(k) + count.(k - 1)
  done;
  let perm = Array.make nrows 0 in
  for i = 0 to nrows - 1 do
    let k = data.(i * w) in
    let p = count.(k) in
    perm.(p) <- i;
    count.(k) <- p + 1
  done;
  if w > 1 then begin
    let made = ref 0 and lo = ref 0 in
    for k = 0 to !top do
      let hi = count.(k) in
      let b = hi - !lo in
      if b > 1 then
        made :=
          !made
          +
          if b <= small_bucket then insertion data w perm !lo hi
          else heapsort data w perm !lo hi;
      lo := hi
    done;
    match compares with Some c -> c := !c + !made | None -> ()
  end;
  perm

let order ?(on_sort = ignore) ?compares w nrows data =
  if sorted_distinct w nrows data then None
  else begin
    on_sort nrows;
    Some (permutation ?compares w nrows data)
  end

(* Rows wider than one int: the order pass, then one dedupe scan. *)
let sort_wide w nrows data =
  let perm = permutation w nrows data in
  let kept = ref 1 in
  for k = 1 to nrows - 1 do
    if row_compare data w 0 perm.(k - 1) perm.(k) <> 0 then incr kept
  done;
  let out = Array.make (!kept * w) 0 in
  let oi = ref 0 in
  for k = 0 to nrows - 1 do
    if k = 0 || row_compare data w 0 perm.(k - 1) perm.(k) <> 0 then begin
      Array.blit data (perm.(k) * w) out (!oi * w) w;
      incr oi
    end
  done;
  (!kept, out)

(* Widest packed key: OCaml ints hold 63 bits, and keys stay
   non-negative. *)
let max_key_bits = 62

let canonicalize ?(on_sort = ignore) w nrows data =
  if nrows = 0 then (0, [||])
  else if sorted_distinct w nrows data then
    ( nrows,
      if Array.length data = nrows * w then data else Array.sub data 0 (nrows * w) )
  else begin
    on_sort nrows;
    let maxc = column_max w nrows data in
    let widths = Array.map bits maxc in
    let total = Array.fold_left ( + ) 0 widths in
    if total <= max_key_bits then sort_packed w nrows data widths total
    else sort_wide w nrows data
  end

(* ------------------------------------------------------------------ *)
(* Frames and coded databases                                          *)

type frame = {
  scheme : Attr.Set.t;
  attrs : Attr.t array; (* sorted; attrs.(j) labels column j *)
  width : int;
  rows : int;
  data : int array; (* row-major, exactly rows * width ints, duplicate-free *)
  sorted : bool; (* rows ascend lexicographically by code *)
  dict : Dict.t;
}

type t = { ddict : Dict.t; frames : frame Scheme.Map.t }

(* Defined last, so that an unannotated [x.rows] reads a block: the
   generators build and read these without naming the type. *)
type block = { rows : int; codes : int array }

(* A canonical [(rows, data)] pair from [canonicalize], which always
   returns an exact-length buffer, as a sorted frame. *)
let frame dict scheme (rows, data) =
  let attrs = Array.of_list (Attr.Set.elements scheme) in
  { scheme; attrs; width = Array.length attrs; rows; data; sorted = true; dict }

let add_frame acc (f : frame) =
  if Scheme.Map.mem f.scheme acc then invalid_arg "Coded: duplicate scheme";
  Scheme.Map.add f.scheme f acc

let of_relation dict r =
  let scheme = Relation.scheme r in
  let w = Attr.Set.cardinal scheme and n = Relation.cardinality r in
  let data = Array.make (n * w) 0 in
  (* Tuple.iter visits the values in increasing attribute order, so the
     cells arrive row-major. *)
  let cell = ref 0 in
  let put _ v =
    match Dict.code dict v with
    | Some c ->
        data.(!cell) <- c;
        incr cell
    | None -> invalid_arg ("Frame.of_relation: no code for " ^ Value.to_string v)
  in
  Relation.iter (Tuple.iter put) r;
  (* Codes follow value order and the tuples come in [Tuple.compare]
     order, so the rows arrive canonical and this is one scan. *)
  frame dict scheme (canonicalize w n data)

let of_ints blocks =
  let maxv = ref (-1) and cells = ref 0 in
  List.iter
    (fun (s, (b : block)) ->
      let ncells = b.rows * Attr.Set.cardinal s in
      if b.rows < 0 || Array.length b.codes < ncells then
        invalid_arg "Coded.of_ints: block shorter than its row count";
      for i = 0 to ncells - 1 do
        let v = b.codes.(i) in
        if v < 0 then invalid_arg "Coded.of_ints: negative value";
        if v > !maxv then maxv := v
      done;
      cells := !cells + ncells)
    blocks;
  (* The present values, ascending, and the dense code of each.  A
     domain not much larger than the data is marked in one array;
     a sparse one (an arbitrary [domain] can be huge) is sorted
     instead, so no allocation depends on the domain. *)
  let present, code =
    if !maxv < (4 * !cells) + 1024 then begin
      let mark = Array.make (!maxv + 1) (-1) in
      List.iter
        (fun (s, b) ->
          for i = 0 to (b.rows * Attr.Set.cardinal s) - 1 do
            mark.(b.codes.(i)) <- 0
          done)
        blocks;
      let n = ref 0 in
      Array.iteri
        (fun v m ->
          if m = 0 then begin
            mark.(v) <- !n;
            incr n
          end)
        mark;
      let present = Array.make !n 0 in
      Array.iteri (fun v c -> if c >= 0 then present.(c) <- v) mark;
      (present, fun v -> Array.unsafe_get mark v)
    end
    else begin
      let all =
        Array.concat
          (List.map
             (fun (s, b) -> Array.sub b.codes 0 (b.rows * Attr.Set.cardinal s))
             blocks)
      in
      Array.sort Int.compare all;
      let n = ref 0 in
      Array.iteri
        (fun i v ->
          if i = 0 || v <> all.(!n - 1) then begin
            all.(!n) <- v;
            incr n
          end)
        all;
      let present = Array.sub all 0 !n in
      let index = Hashtbl.create (Array.length present) in
      Array.iteri (fun c v -> Hashtbl.replace index v c) present;
      (present, Hashtbl.find index)
    end
  in
  let ddict = Dict.of_sorted (Array.map Value.int present) in
  (* Every cell remapped through the monotone [code] into a fresh
     exact-length buffer, then canonicalized: the sort runs on dense
     codes, the set semantics of [Relation.make]. *)
  let frames =
    List.fold_left
      (fun acc (s, b) ->
        let w = Attr.Set.cardinal s in
        let ncells = b.rows * w in
        let buf = Array.make ncells 0 in
        for i = 0 to ncells - 1 do
          Array.unsafe_set buf i (code (Array.unsafe_get b.codes i))
        done;
        add_frame acc (frame ddict s (canonicalize w b.rows buf)))
      Scheme.Map.empty blocks
  in
  { ddict; frames }

let of_relations rels =
  (* Sort the distinct values once; each relation is then coded by
     {!of_relation}, whose rows arrive canonical. *)
  let values = ref [] in
  List.iter
    (Relation.iter (Tuple.iter (fun _ v -> values := v :: !values)))
    rels;
  let ddict =
    Dict.of_sorted (Array.of_list (List.sort_uniq Value.compare !values))
  in
  {
    ddict;
    frames =
      List.fold_left
        (fun acc r -> add_frame acc (of_relation ddict r))
        Scheme.Map.empty rels;
  }

let to_relation ?perm (f : frame) =
  (* Rows are distinct and over [f.scheme] by construction: each tuple
     is one value array over a shared header, so [Relation.of_array]'s
     scheme check is a pointer test per tuple, and the rows arrive in
     [Tuple.compare] order, so its sort is one ascending scan. *)
  if f.rows = 0 then Relation.empty f.scheme
  else begin
    let w = f.width in
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

let restrict c d =
  { c with frames = Scheme.Map.filter (fun s _ -> Scheme.Set.mem s d) c.frames }

(* Coded databases: one value-ordered dictionary plus a canonical code
   buffer per scheme.  See coded.mli for the contract. *)

module Dict = struct
  (* The dictionary's value order: [by_rank] lists the codes ascending
     by [Value.compare], [rank] inverts it, [identity] says both are
     the identity (codes already follow value order).  [covers] is the
     dictionary size it was computed at; interning more values makes it
     stale. *)
  type order = {
    covers : int;
    rank : int array;
    by_rank : int array;
    identity : bool;
  }

  type t = {
    (* value -> code; [None] until first needed on a dictionary built
       by [of_sorted], which never interns on the query path *)
    mutable codes : (Value.t, int) Hashtbl.t option;
    mutable values : Value.t array; (* decode table, dense prefix *)
    mutable size : int;
    order : order option Atomic.t;
    text : string array option Atomic.t; (* code -> Value.to_string *)
  }

  let create ?(hint = 256) () =
    {
      codes = Some (Hashtbl.create hint);
      values = Array.make 64 (Value.int 0);
      size = 0;
      order = Atomic.make None;
      text = Atomic.make None;
    }

  let identity_order n =
    let id = Array.init n Fun.id in
    { covers = n; rank = id; by_rank = id; identity = true }

  let of_sorted values =
    let n = Array.length values in
    {
      codes = None;
      values;
      size = n;
      order = Atomic.make (Some (identity_order n));
      text = Atomic.make None;
    }

  let size d = d.size

  let table d =
    match d.codes with
    | Some t -> t
    | None ->
        let t = Hashtbl.create (max 16 d.size) in
        for c = 0 to d.size - 1 do
          Hashtbl.replace t d.values.(c) c
        done;
        d.codes <- Some t;
        t

  let intern d v =
    let codes = table d in
    match Hashtbl.find_opt codes v with
    | Some c -> c
    | None ->
        let c = d.size in
        (* Growing copies first, so a decode table shared with a coded
           database is never written. *)
        if c = Array.length d.values then begin
          let bigger = Array.make (max 64 (2 * c)) (Value.int 0) in
          Array.blit d.values 0 bigger 0 c;
          d.values <- bigger
        end;
        d.values.(c) <- v;
        Hashtbl.add codes v c;
        d.size <- c + 1;
        c

  let code d v = Hashtbl.find_opt (table d) v

  let value d c =
    if c < 0 || c >= d.size then
      invalid_arg "Frame.Dict.value: code out of range";
    d.values.(c)

  (* Computed on first use and kept for as long as no value is
     interned, so a warm dictionary (the serve daemon's, frozen after
     encode) sorts its values once, not once per query.  Concurrent
     readers may race to fill the cache; each computes the same arrays
     and the atomic publishes whole ones. *)
  let order d =
    match Atomic.get d.order with
    | Some o when o.covers = d.size -> o
    | _ ->
        let n = d.size and values = d.values in
        let by_rank = Array.init n Fun.id in
        Array.stable_sort
          (fun a b -> Value.compare values.(a) values.(b))
          by_rank;
        let rank = Array.make n 0 in
        Array.iteri (fun r c -> rank.(c) <- r) by_rank;
        let identity =
          let rec go r = r = n || (by_rank.(r) = r && go (r + 1)) in
          go 0
        in
        let o = { covers = n; rank; by_rank; identity } in
        Atomic.set d.order (Some o);
        o

  let text d =
    match Atomic.get d.text with
    | Some t when Array.length t = d.size -> t
    | _ ->
        let t = Array.init d.size (fun c -> Value.to_string d.values.(c)) in
        Atomic.set d.text (Some t);
        t
end

(* ------------------------------------------------------------------ *)
(* Canonical form                                                      *)

(* Lexicographic comparison of rows [i] and [j]: a plain loop, so the
   dedupe scans below allocate nothing per row. *)
let row_compare data w i j =
  let bi = i * w and bj = j * w in
  let k = ref 0 and c = ref 0 in
  while !c = 0 && !k < w do
    let a : int = data.(bi + !k) and b : int = data.(bj + !k) in
    c := if a < b then -1 else if a > b then 1 else 0;
    incr k
  done;
  !c

(* True iff the first [nrows] rows are already strictly increasing —
   the common case for relation states recoded in value order.  One
   O(rows * w) scan that lets [canonicalize] skip the sort. *)
let sorted_distinct w nrows data =
  let i = ref 1 in
  while !i < nrows && row_compare data w (!i - 1) !i < 0 do
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
(* Rank order                                                          *)

(* Rows [a] and [b] compared by the ranks of their columns from [from]
   on: a plain loop, like [row_compare]. *)
let rank_compare rank data w from a b =
  let ba = a * w and bb = b * w in
  let j = ref from and c = ref 0 in
  while !c = 0 && !j < w do
    let x : int = rank.(data.(ba + !j)) and y : int = rank.(data.(bb + !j)) in
    c := if x < y then -1 else if x > y then 1 else 0;
    incr j
  done;
  !c

let in_rank_order rank w nrows data =
  let i = ref 1 in
  while !i < nrows && rank_compare rank data w 0 (!i - 1) !i < 0 do
    incr i
  done;
  !i >= nrows

(* The bucket finishers order [perm.(lo .. hi - 1)] on columns 1 and
   up (the bucket shares column 0) and return the row comparisons they
   made.  Buckets of up to [small_bucket] rows take an insertion sort,
   which is the cheapest on the one- to few-row buckets of most
   leading columns; larger ones an in-place heap sort, so a leading
   column that holds one code in most rows costs O(b log b), never
   O(b²).  Neither allocates. *)
let small_bucket = 16

let insertion rank data w perm lo hi =
  let made = ref 0 in
  for i = lo + 1 to hi - 1 do
    let x = perm.(i) in
    let j = ref (i - 1) and moving = ref true in
    while !moving && !j >= lo do
      incr made;
      if rank_compare rank data w 1 perm.(!j) x > 0 then begin
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
let sift_down rank data w perm lo n i x =
  let i = ref i and made = ref 0 and sifting = ref true in
  while !sifting do
    let l = (2 * !i) + 1 in
    if l >= n then sifting := false
    else begin
      let child =
        if l + 1 < n then begin
          incr made;
          if rank_compare rank data w 1 perm.(lo + l + 1) perm.(lo + l) > 0
          then l + 1
          else l
        end
        else l
      in
      incr made;
      if rank_compare rank data w 1 perm.(lo + child) x > 0 then begin
        perm.(lo + !i) <- perm.(lo + child);
        i := child
      end
      else sifting := false
    end
  done;
  perm.(lo + !i) <- x;
  !made

let heapsort rank data w perm lo hi =
  let n = hi - lo and made = ref 0 in
  for i = (n / 2) - 1 downto 0 do
    made := !made + sift_down rank data w perm lo n i perm.(lo + i)
  done;
  for last = n - 1 downto 1 do
    let x = perm.(lo + last) in
    perm.(lo + last) <- perm.(lo);
    made := !made + sift_down rank data w perm lo last 0 x
  done;
  !made

let rank_order ?(on_sort = ignore) ?compares ~rank w nrows data =
  if in_rank_order rank w nrows data then None
  else begin
    on_sort nrows;
    (* One counting pass on column 0: [count.(k)] becomes the start of
       bucket [k], then, as rows are placed, its end. *)
    let top = ref 0 in
    for i = 0 to nrows - 1 do
      let k = rank.(data.(i * w)) in
      if k > !top then top := k
    done;
    let count = Array.make (!top + 2) 0 in
    for i = 0 to nrows - 1 do
      let k = rank.(data.(i * w)) + 1 in
      count.(k) <- count.(k) + 1
    done;
    for k = 1 to !top do
      count.(k) <- count.(k) + count.(k - 1)
    done;
    let perm = Array.make nrows 0 in
    for i = 0 to nrows - 1 do
      let k = rank.(data.(i * w)) in
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
            if b <= small_bucket then insertion rank data w perm !lo hi
            else heapsort rank data w perm !lo hi;
        lo := hi
      done;
      match compares with Some c -> c := !c + !made | None -> ()
    end;
    Some perm
  end

(* Rows wider than one int: {!rank_order} with every code its own rank,
   then one dedupe scan. *)
let sort_wide w nrows data maxc =
  let rank = Array.init (Array.fold_left max 0 maxc + 1) Fun.id in
  let perm =
    match rank_order ~rank w nrows data with
    | Some perm -> perm
    | None -> Array.init nrows Fun.id
  in
  let kept = ref 1 in
  for k = 1 to nrows - 1 do
    if row_compare data w perm.(k - 1) perm.(k) <> 0 then incr kept
  done;
  let out = Array.make (!kept * w) 0 in
  let oi = ref 0 in
  for k = 0 to nrows - 1 do
    if k = 0 || row_compare data w perm.(k - 1) perm.(k) <> 0 then begin
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
    else sort_wide w nrows data maxc
  end

(* ------------------------------------------------------------------ *)
(* Coded databases                                                     *)

type block = { rows : int; codes : int array }
type t = { values : Value.t array; blocks : block Scheme.Map.t }

let width = Attr.Set.cardinal

(* Remap every cell through the monotone [code] (so canonical order is
   kept or, for raw input, established by the sort that follows) and
   canonicalize. *)
let recode code blocks =
  List.fold_left
    (fun acc (s, b) ->
      if Scheme.Map.mem s acc then invalid_arg "Coded: duplicate scheme";
      let w = width s in
      let ncells = b.rows * w in
      let buf = Array.make ncells 0 in
      for i = 0 to ncells - 1 do
        Array.unsafe_set buf i (code (Array.unsafe_get b.codes i))
      done;
      let rows, codes = canonicalize w b.rows buf in
      Scheme.Map.add s { rows; codes } acc)
    Scheme.Map.empty blocks

let of_ints blocks =
  let maxv = ref (-1) and cells = ref 0 in
  List.iter
    (fun (s, b) ->
      let ncells = b.rows * width s in
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
          for i = 0 to (b.rows * width s) - 1 do
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
          (List.map (fun (s, b) -> Array.sub b.codes 0 (b.rows * width s)) blocks)
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
  { values = Array.map Value.int present; blocks = recode code blocks }

let of_relations rels =
  (* Intern in first-seen order, then rank the values once and recode
     by rank: each relation's tuples are in [Tuple.compare] order, so
     the ranked rows arrive sorted and canonicalize is one scan. *)
  let dict = Dict.create () in
  let raw =
    List.map
      (fun r ->
        let s = Relation.scheme r in
        let codes = Array.make (Relation.cardinality r * width s) 0 in
        let cell = ref 0 in
        Relation.iter
          (Tuple.iter (fun _ v ->
               codes.(!cell) <- Dict.intern dict v;
               incr cell))
          r;
        (s, { rows = Relation.cardinality r; codes }))
      rels
  in
  let o = Dict.order dict in
  {
    values = Array.map (fun c -> Dict.value dict c) o.by_rank;
    blocks = recode (fun c -> Array.unsafe_get o.rank c) raw;
  }

let rows c s = (Scheme.Map.find s c.blocks).rows

let decode c s =
  let b = Scheme.Map.find s c.blocks in
  if b.rows = 0 then Relation.empty s
  else begin
    (* Codes follow value order, so the rows are already in
       [Tuple.compare] order and [Relation.of_array]'s sort is one
       scan; every row shares one header, so its scheme check is a
       pointer test. *)
    let w = width s and header = Tuple.header s in
    let tuples = Array.make b.rows Tuple.empty in
    for r = 0 to b.rows - 1 do
      let base = r * w in
      let vals = Array.make w c.values.(b.codes.(base)) in
      for j = 1 to w - 1 do
        vals.(j) <- c.values.(b.codes.(base + j))
      done;
      tuples.(r) <- Tuple.of_values header vals
    done;
    Relation.of_array s tuples
  end

let restrict c d =
  { c with blocks = Scheme.Map.filter (fun s _ -> Scheme.Set.mem s d) c.blocks }

(* A state is its tuples in strictly ascending [Tuple.compare] order:
   duplicate-free by construction, searched by bisection, merged by
   linear walks.  Arrays are never mutated once a state holds them. *)
type t = {
  scheme : Attr.Set.t;
  tuples : Tuple.t array;
}

let empty scheme =
  if Attr.Set.is_empty scheme then
    invalid_arg "Relation.empty: a relation scheme must be non-empty";
  { scheme; tuples = [||] }

let check_tuple scheme header tu =
  if not (Tuple.is_over header tu) then
    invalid_arg
      (Printf.sprintf "Relation: tuple %s is not over scheme %s"
         (Tuple.to_string tu)
         (Attr.Set.to_string scheme))

(* Sort and dedupe a fresh array in place.  A non-descending scan comes
   first, so input that is already in order — a decode, a projection
   onto leading columns — costs n - 1 comparisons and no sort. *)
let canonical arr =
  let n = Array.length arr in
  let rec scan k strict =
    if k >= n then Some strict
    else
      let c = Tuple.compare arr.(k - 1) arr.(k) in
      if c < 0 then scan (k + 1) strict
      else if c = 0 then scan (k + 1) false
      else None
  in
  match scan 1 true with
  | Some true -> arr
  | sorted ->
      if Option.is_none sorted then Array.stable_sort Tuple.compare arr;
      let m = ref 1 in
      for k = 1 to n - 1 do
        if not (Tuple.equal arr.(!m - 1) arr.(k)) then begin
          arr.(!m) <- arr.(k);
          incr m
        end
      done;
      if !m = n then arr else Array.sub arr 0 !m

(* One checked pass over the tuples (a header comparison each, which
   allocates nothing), then one sort. *)
let make scheme tuples =
  let r = empty scheme in
  let header = Tuple.header scheme in
  List.iter (check_tuple scheme header) tuples;
  { r with tuples = canonical (Array.of_list tuples) }

let of_rows shorthand rows =
  let attrs =
    List.init (String.length shorthand) (fun i ->
        Attr.make (String.make 1 shorthand.[i]))
  in
  let distinct = List.sort_uniq Attr.compare attrs in
  if List.length distinct <> List.length attrs then
    invalid_arg "Relation.of_rows: scheme shorthand repeats an attribute";
  let scheme = Attr.Set.of_list attrs in
  let row_to_tuple row =
    if List.length row <> List.length attrs then
      invalid_arg "Relation.of_rows: row width differs from scheme width";
    Tuple.of_list (List.combine attrs row)
  in
  make scheme (List.map row_to_tuple rows)

let scheme r = r.scheme
let cardinality r = Array.length r.tuples
let is_empty r = Array.length r.tuples = 0

(* The first position whose tuple is not below [tu]. *)
let lower_bound tu arr =
  let rec go lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) lsr 1 in
      if Tuple.compare arr.(mid) tu < 0 then go (mid + 1) hi else go lo mid
  in
  go 0 (Array.length arr)

let mem tu r =
  let k = lower_bound tu r.tuples in
  k < Array.length r.tuples && Tuple.equal r.tuples.(k) tu

let add tu r =
  check_tuple r.scheme (Tuple.header r.scheme) tu;
  let arr = r.tuples in
  let k = lower_bound tu arr in
  if k < Array.length arr && Tuple.equal arr.(k) tu then r
  else
    let n = Array.length arr in
    { r with
      tuples =
        Array.init (n + 1) (fun j ->
            if j < k then arr.(j) else if j = k then tu else arr.(j - 1));
    }

let tuples r = Array.to_list r.tuples
let fold f r acc = Array.fold_left (fun acc tu -> f tu acc) acc r.tuples
let iter f r = Array.iter f r.tuples
let for_all p r = Array.for_all p r.tuples
let exists p r = Array.exists p r.tuples

(* Filtering keeps the order, so the result needs no sort. *)
let filter p arr = Array.of_list (List.filter p (Array.to_list arr))

let distinct_values r a =
  if not (Attr.Set.mem a r.scheme) then
    invalid_arg
      (Printf.sprintf "Relation.distinct_values: %s not in scheme %s"
         (Attr.to_string a)
         (Attr.Set.to_string r.scheme));
  List.sort_uniq Value.compare (List.map (fun tu -> Tuple.get tu a) (tuples r))

(* A hash-join keyed on the restriction of each tuple to the common
   attributes.  The extractor is compiled once per join: the common
   attributes are listed once and each probe reads the values directly,
   so no per-probe restricted tuple is built.  The key is the value list
   in increasing attribute order. *)
let key_extractor common =
  let attrs = Attr.Set.elements common in
  fun tu -> List.map (fun a -> Tuple.get tu a) attrs

let natural_join r1 r2 =
  let common = Attr.Set.inter r1.scheme r2.scheme in
  let out_scheme = Attr.Set.union r1.scheme r2.scheme in
  if Attr.Set.is_empty common then
    (* Cartesian product: every pair matches, so the hash index would be
       a single degenerate bucket — pair the tuples directly instead. *)
    let out =
      fold
        (fun tu acc -> fold (fun tu' acc -> Tuple.merge tu tu' :: acc) r2 acc)
        r1 []
    in
    { scheme = out_scheme; tuples = canonical (Array.of_list out) }
  else begin
    (* Index the smaller operand to bound the hash table size. *)
    let small, large =
      if cardinality r1 <= cardinality r2 then (r1, r2) else (r2, r1)
    in
    let key = key_extractor common in
    let index = Hashtbl.create (max 16 (cardinality small)) in
    iter (fun tu -> Hashtbl.add index (key tu) tu) small;
    let out =
      fold
        (fun tu acc ->
          let matches = Hashtbl.find_all index (key tu) in
          List.fold_left (fun acc tu' -> Tuple.merge tu tu' :: acc) acc matches)
        large []
    in
    { scheme = out_scheme; tuples = canonical (Array.of_list out) }
  end

let product r1 r2 =
  if not (Attr.Set.disjoint r1.scheme r2.scheme) then
    invalid_arg "Relation.product: schemes overlap; use natural_join";
  natural_join r1 r2

let project r x =
  if Attr.Set.is_empty x then
    invalid_arg "Relation.project: projection onto the empty scheme";
  if not (Attr.Set.subset x r.scheme) then
    invalid_arg
      (Printf.sprintf "Relation.project: %s is not a subset of %s"
         (Attr.Set.to_string x)
         (Attr.Set.to_string r.scheme));
  let out = Array.map (fun tu -> Tuple.restrict tu x) r.tuples in
  { scheme = x; tuples = canonical out }

let select r p = { r with tuples = filter p r.tuples }

(* Whether a tuple of [r1] joins with some tuple of [r2]. *)
let joins_with r1 r2 =
  let common = Attr.Set.inter r1.scheme r2.scheme in
  if Attr.Set.is_empty common then
    (* With no common attributes every tuple joins iff r2 is non-empty. *)
    let any = not (is_empty r2) in
    fun _ -> any
  else begin
    let key = key_extractor common in
    let keys = Hashtbl.create (max 16 (cardinality r2)) in
    iter (fun tu -> Hashtbl.replace keys (key tu) ()) r2;
    fun tu -> Hashtbl.mem keys (key tu)
  end

let semijoin r1 r2 = select r1 (joins_with r1 r2)

let antijoin r1 r2 =
  let joins = joins_with r1 r2 in
  select r1 (fun tu -> not (joins tu))

let check_same_scheme op r1 r2 =
  if not (Attr.Set.equal r1.scheme r2.scheme) then
    invalid_arg
      (Printf.sprintf "Relation.%s: schemes %s and %s differ" op
         (Attr.Set.to_string r1.scheme)
         (Attr.Set.to_string r2.scheme))

(* One linear walk over both sorted states, keeping a tuple found only
   in the first ([left]), only in the second ([right]) or in both
   ([both]). *)
let merge_walk ~left ~both ~right r1 r2 =
  let a = r1.tuples and b = r2.tuples in
  let na = Array.length a and nb = Array.length b in
  let out = ref [] in
  let keep flag tu = if flag then out := tu :: !out in
  let rec go i j =
    if i < na && j < nb then begin
      let c = Tuple.compare a.(i) b.(j) in
      if c < 0 then (keep left a.(i); go (i + 1) j)
      else if c > 0 then (keep right b.(j); go i (j + 1))
      else (keep both a.(i); go (i + 1) (j + 1))
    end
    else begin
      for k = i to na - 1 do keep left a.(k) done;
      for k = j to nb - 1 do keep right b.(k) done
    end
  in
  go 0 0;
  { r1 with tuples = Array.of_list (List.rev !out) }

let union r1 r2 =
  check_same_scheme "union" r1 r2;
  merge_walk ~left:true ~both:true ~right:true r1 r2

let inter r1 r2 =
  check_same_scheme "inter" r1 r2;
  merge_walk ~left:false ~both:true ~right:false r1 r2

let diff r1 r2 =
  check_same_scheme "diff" r1 r2;
  merge_walk ~left:true ~both:false ~right:false r1 r2

let rename r mapping =
  (* Pre-build the mapping as a map so each attribute costs one lookup
     instead of a linear scan of the list (earlier entries win, matching
     the historical List.find_opt behaviour). *)
  let map =
    List.fold_left
      (fun acc (src, dst) ->
        if Attr.Map.mem src acc then acc else Attr.Map.add src dst acc)
      Attr.Map.empty mapping
  in
  let rename_attr a =
    match Attr.Map.find_opt a map with Some dst -> dst | None -> a
  in
  let out_scheme = Attr.Set.map rename_attr r.scheme in
  if Attr.Set.cardinal out_scheme <> Attr.Set.cardinal r.scheme then
    invalid_arg "Relation.rename: renaming is not injective on the scheme";
  let rename_tuple tu =
    Tuple.of_list
      (List.map (fun (a, v) -> (rename_attr a, v)) (Tuple.bindings tu))
  in
  { scheme = out_scheme; tuples = canonical (Array.map rename_tuple r.tuples) }

(* Lexicographic over the tuples, a proper prefix first. *)
let compare_tuples a b =
  let na = Array.length a and nb = Array.length b in
  let rec go k =
    if k = na || k = nb then Int.compare na nb
    else
      let c = Tuple.compare a.(k) b.(k) in
      if c <> 0 then c else go (k + 1)
  in
  go 0

let equal r1 r2 =
  Attr.Set.equal r1.scheme r2.scheme && compare_tuples r1.tuples r2.tuples = 0

let compare r1 r2 =
  let c = Attr.Set.compare r1.scheme r2.scheme in
  if c <> 0 then c else compare_tuples r1.tuples r2.tuples

(* The result digest over the tuples in state order, which is
   [Tuple.compare] order; [Tuple.iter] visits each tuple's bindings in
   column order, so nothing is allocated per tuple or binding. *)
let digest r =
  let s = Fnv.result r.scheme in
  let cell _ v = Fnv.cell_value s v in
  iter
    (fun tu ->
      Tuple.iter cell tu;
      Fnv.end_row s)
    r;
  Fnv.digest s

let pp fmt r =
  let attrs = Attr.Set.elements r.scheme in
  let header = List.map Attr.to_string attrs in
  let rows =
    List.map
      (fun tu -> List.map (fun a -> Value.to_string (Tuple.get tu a)) attrs)
      (tuples r)
  in
  let widths =
    List.mapi
      (fun i h ->
        List.fold_left
          (fun w row -> max w (String.length (List.nth row i)))
          (String.length h) rows)
      header
  in
  let pad s w = s ^ String.make (w - String.length s) ' ' in
  let pp_row row =
    Format.fprintf fmt "| %s |@,"
      (String.concat " | " (List.map2 pad row widths))
  in
  let rule =
    "+" ^ String.concat "+" (List.map (fun w -> String.make (w + 2) '-') widths)
    ^ "+"
  in
  Format.pp_open_vbox fmt 0;
  Format.fprintf fmt "%s@," rule;
  pp_row header;
  Format.fprintf fmt "%s@," rule;
  List.iter pp_row rows;
  Format.fprintf fmt "%s" rule;
  Format.pp_close_box fmt ()

let pp_brief fmt r =
  Format.fprintf fmt "%a(%d)" Attr.Set.pp r.scheme (cardinality r)

let to_string r = Format.asprintf "%a" pp r

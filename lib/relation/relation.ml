module Tuple_set = Stdlib.Set.Make (Tuple)
module Vset = Stdlib.Set.Make (Value)

type t = {
  scheme : Attr.Set.t;
  tuples : Tuple_set.t;
}

let empty scheme =
  if Attr.Set.is_empty scheme then
    invalid_arg "Relation.empty: a relation scheme must be non-empty";
  { scheme; tuples = Tuple_set.empty }

let check_tuple scheme tu =
  if not (Attr.Set.equal (Tuple.scheme tu) scheme) then
    invalid_arg
      (Printf.sprintf "Relation: tuple %s is not over scheme %s"
         (Tuple.to_string tu)
         (Attr.Set.to_string scheme))

let add tu r =
  check_tuple r.scheme tu;
  { r with tuples = Tuple_set.add tu r.tuples }

let make scheme tuples = List.fold_left (fun r tu -> add tu r) (empty scheme) tuples

(* Trusted fast path for columnar decode: every tuple is over [scheme]
   by construction (only the head is checked), so the set is built in
   one [Tuple_set.of_list] pass — a single sort, which the decode
   feeds in already-ascending order, halving its comparison cost —
   instead of per-tuple checked inserts. *)
let of_uniform_tuples scheme tuples =
  let r = empty scheme in
  match tuples with
  | [] -> r
  | tu :: _ ->
      check_tuple scheme tu;
      { r with tuples = Tuple_set.of_list tuples }

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
let cardinality r = Tuple_set.cardinal r.tuples
let is_empty r = Tuple_set.is_empty r.tuples
let mem tu r = Tuple_set.mem tu r.tuples
let tuples r = Tuple_set.elements r.tuples
let fold f r acc = Tuple_set.fold f r.tuples acc
let iter f r = Tuple_set.iter f r.tuples
let for_all p r = Tuple_set.for_all p r.tuples
let exists p r = Tuple_set.exists p r.tuples

let distinct_values r a =
  if not (Attr.Set.mem a r.scheme) then
    invalid_arg
      (Printf.sprintf "Relation.distinct_values: %s not in scheme %s"
         (Attr.to_string a)
         (Attr.Set.to_string r.scheme));
  Vset.elements (fold (fun tu acc -> Vset.add (Tuple.get tu a) acc) r Vset.empty)

(* A hash-join keyed on the restriction of each tuple to the common
   attributes.  The extractor is compiled once per join: the common
   attributes are listed once and each probe reads the values directly,
   so no per-probe map restriction is built.  The resulting value list
   (in increasing attribute order) is safe for structural hashing (Map
   internals are not). *)
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
        (fun tu acc ->
          fold
            (fun tu' acc -> Tuple_set.add (Tuple.merge tu tu') acc)
            r2 acc)
        r1 Tuple_set.empty
    in
    { scheme = out_scheme; tuples = out }
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
          List.fold_left
            (fun acc tu' -> Tuple_set.add (Tuple.merge tu tu') acc)
            acc matches)
        large Tuple_set.empty
    in
    { scheme = out_scheme; tuples = out }
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
  let out =
    fold (fun tu acc -> Tuple_set.add (Tuple.restrict tu x) acc) r
      Tuple_set.empty
  in
  { scheme = x; tuples = out }

let select r p = { r with tuples = Tuple_set.filter p r.tuples }

let semijoin r1 r2 =
  let common = Attr.Set.inter r1.scheme r2.scheme in
  if Attr.Set.is_empty common then
    (* With no common attributes every tuple joins iff r2 is non-empty. *)
    if is_empty r2 then { r1 with tuples = Tuple_set.empty } else r1
  else begin
    let key = key_extractor common in
    let keys = Hashtbl.create (max 16 (cardinality r2)) in
    iter (fun tu -> Hashtbl.replace keys (key tu) ()) r2;
    select r1 (fun tu -> Hashtbl.mem keys (key tu))
  end

let antijoin r1 r2 =
  let kept = semijoin r1 r2 in
  { r1 with tuples = Tuple_set.diff r1.tuples kept.tuples }

let check_same_scheme op r1 r2 =
  if not (Attr.Set.equal r1.scheme r2.scheme) then
    invalid_arg
      (Printf.sprintf "Relation.%s: schemes %s and %s differ" op
         (Attr.Set.to_string r1.scheme)
         (Attr.Set.to_string r2.scheme))

let union r1 r2 =
  check_same_scheme "union" r1 r2;
  { r1 with tuples = Tuple_set.union r1.tuples r2.tuples }

let inter r1 r2 =
  check_same_scheme "inter" r1 r2;
  { r1 with tuples = Tuple_set.inter r1.tuples r2.tuples }

let diff r1 r2 =
  check_same_scheme "diff" r1 r2;
  { r1 with tuples = Tuple_set.diff r1.tuples r2.tuples }

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
  let out =
    fold (fun tu acc -> Tuple_set.add (rename_tuple tu) acc) r Tuple_set.empty
  in
  { scheme = out_scheme; tuples = out }

let equal r1 r2 =
  Attr.Set.equal r1.scheme r2.scheme && Tuple_set.equal r1.tuples r2.tuples

let compare r1 r2 =
  let c = Attr.Set.compare r1.scheme r2.scheme in
  if c <> 0 then c else Tuple_set.compare r1.tuples r2.tuples

(* The result digest over the tuples in set order, which is
   [Tuple.compare] order; [Tuple.iter] visits each tuple's bindings in
   column order, so nothing is allocated per tuple or binding. *)
let digest r =
  let s = Fnv.result r.scheme in
  let cell _ v = Fnv.cell_value s v in
  Tuple_set.iter
    (fun tu ->
      Tuple.iter cell tu;
      Fnv.end_row s)
    r.tuples;
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

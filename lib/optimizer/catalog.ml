open Mj_relation

type entry = {
  card : int;
  distincts : int Attr.Map.t;
}

type t = entry Scheme.Map.t

(* One pass over the tuples with a hash set per column: [Tuple.iter]
   visits a tuple's values in increasing attribute order, which is the
   column order of [Attr.Set.elements]. *)
let distincts r =
  let attrs = Attr.Set.elements (Relation.scheme r) in
  let size = min 1024 (Relation.cardinality r) in
  let seen = Array.of_list (List.map (fun _ -> Hashtbl.create size) attrs) in
  let col = ref 0 in
  let put _ v =
    Hashtbl.replace seen.(!col) v ();
    incr col
  in
  Relation.iter
    (fun tu ->
      col := 0;
      Tuple.iter put tu)
    r;
  List.fold_left
    (fun (m, j) a -> (Attr.Map.add a (Hashtbl.length seen.(j)) m, j + 1))
    (Attr.Map.empty, 0) attrs
  |> fst

let of_database db =
  List.fold_left
    (fun acc r ->
      let scheme = Relation.scheme r in
      let distincts = distincts r in
      Scheme.Map.add scheme { card = Relation.cardinality r; distincts } acc)
    Scheme.Map.empty (Database.relations db)

let synthetic specs =
  List.fold_left
    (fun acc (scheme, card, distincts) ->
      if Scheme.Map.mem scheme acc then
        invalid_arg "Catalog.synthetic: duplicate scheme";
      if card < 0 then invalid_arg "Catalog.synthetic: negative cardinality";
      let map =
        List.fold_left
          (fun m (a, v) ->
            if v < 1 && card > 0 then
              invalid_arg "Catalog.synthetic: distinct count below 1";
            if not (Attr.Set.mem a scheme) then
              invalid_arg "Catalog.synthetic: attribute outside its scheme";
            Attr.Map.add a (min v card) m)
          Attr.Map.empty distincts
      in
      (* Unlisted attributes are treated as keys. *)
      let map =
        Attr.Set.fold
          (fun a m -> if Attr.Map.mem a m then m else Attr.Map.add a card m)
          scheme map
      in
      Scheme.Map.add scheme { card; distincts = map } acc)
    Scheme.Map.empty specs

let schemes cat = List.map fst (Scheme.Map.bindings cat)

let cardinality cat scheme = (Scheme.Map.find scheme cat).card

let distinct cat scheme a = Attr.Map.find a (Scheme.Map.find scheme cat).distincts

let pp fmt cat =
  Format.pp_open_vbox fmt 0;
  Scheme.Map.iter
    (fun scheme e ->
      let ds =
        Attr.Map.bindings e.distincts
        |> List.map (fun (a, v) -> Printf.sprintf "%s:%d" (Attr.to_string a) v)
        |> String.concat " "
      in
      Format.fprintf fmt "%s |%d| %s@," (Scheme.to_string scheme) e.card ds)
    cat;
  Format.pp_close_box fmt ()

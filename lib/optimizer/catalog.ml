open Mj_relation

type entry = {
  card : int;
  distincts : int Attr.Map.t;
}

type t = entry Scheme.Map.t

(* Distinct values per column, counted on the frames: codes are
   dense and biject with values, so one mark array over the dictionary
   serves every column — each column stamps its own id, so the array is
   never cleared. *)
let of_database db =
  let c = Database.coded db in
  let mark = Array.make (Coded.Dict.size c.ddict) (-1) in
  let stamp = ref 0 in
  Scheme.Map.map
    (fun (f : Coded.frame) ->
      let distinct m (j, a) =
        incr stamp;
        let n = ref 0 in
        for r = 0 to f.rows - 1 do
          let v = Array.unsafe_get f.data ((r * f.width) + j) in
          if mark.(v) <> !stamp then begin
            mark.(v) <- !stamp;
            incr n
          end
        done;
        Attr.Map.add a !n m
      in
      let distincts =
        Seq.fold_left distinct Attr.Map.empty (Array.to_seqi f.attrs)
      in
      { card = f.rows; distincts })
    c.frames

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

let equal =
  Scheme.Map.equal (fun e1 e2 ->
      e1.card = e2.card && Attr.Map.equal Int.equal e1.distincts e2.distincts)

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

open Mj_relation

let delete_unique_attrs d =
  let universe = Scheme.Set.universe d in
  let occurs_once a =
    Scheme.Set.cardinal (Hypergraph.schemes_containing d a) = 1
  in
  let unique = Attr.Set.filter occurs_once universe in
  if Attr.Set.is_empty unique then d
  else
    Scheme.Set.fold
      (fun s acc ->
        let s' = Attr.Set.diff s unique in
        if Attr.Set.is_empty s' then acc else Scheme.Set.add s' acc)
      d Scheme.Set.empty

let delete_contained d =
  Scheme.Set.filter
    (fun s ->
      not
        (Scheme.Set.exists
           (fun s' -> (not (Scheme.equal s s')) && Attr.Set.subset s s')
           d))
    d
  |> fun kept ->
  (* Two equal schemes cannot coexist in a set, but a scheme strictly
     contained in another must go; if everything was mutually contained
     (impossible in a set), [kept] would be empty — guard anyway. *)
  if Scheme.Set.is_empty kept && not (Scheme.Set.is_empty d) then
    Scheme.Set.singleton (Scheme.Set.choose d)
  else kept

let rec reduce d =
  let d' = delete_contained (delete_unique_attrs d) in
  if Scheme.Set.equal d d' then d else reduce d'

let is_alpha_acyclic d = Scheme.Set.cardinal (reduce d) <= 1

(* The bitmask twin of [reduce], in the style of the Bitdb kernel:
   attributes of the universe are indexed once, every scheme becomes one
   int mask, and the two reduction rules collapse into word operations —
   an attribute is unique iff its bit is set in exactly one mask
   (seen-once/seen-twice accumulators), containment is [m land m' = m].
   The planner classifies every incoming query, so this path keeps the
   per-query cost at O(n²) word ops instead of set surgery; universes
   wider than a machine word fall back to the set implementation. *)
let is_alpha_acyclic_bits d =
  let universe = Scheme.Set.universe d in
  if Attr.Set.cardinal universe > Sys.int_size - 2 then is_alpha_acyclic d
  else begin
    let index =
      let m, _ =
        Attr.Set.fold
          (fun a (m, i) -> (Attr.Map.add a i m, i + 1))
          universe (Attr.Map.empty, 0)
      in
      m
    in
    let mask_of s =
      Attr.Set.fold (fun a acc -> acc lor (1 lsl Attr.Map.find a index)) s 0
    in
    let masks = List.map mask_of (Scheme.Set.elements d) in
    (* Invariant: [masks] sorted and duplicate-free, mirroring the set
       representation (equal schemes collapse there too). *)
    let rec fixpoint masks =
      (* Bits set in exactly one mask. *)
      let seen_once = ref 0 and seen_many = ref 0 in
      List.iter
        (fun m ->
          seen_many := !seen_many lor (!seen_once land m);
          seen_once := !seen_once lor m)
        masks;
      let unique = !seen_once land lnot !seen_many in
      let stripped =
        List.filter_map
          (fun m ->
            let m' = m land lnot unique in
            if m' = 0 then None else Some m')
          masks
      in
      let distinct = List.sort_uniq compare stripped in
      let kept =
        List.filter
          (fun m ->
            not (List.exists (fun m' -> m' <> m && m land m' = m) distinct))
          distinct
      in
      if kept = masks then masks else fixpoint kept
    in
    List.length (fixpoint (List.sort_uniq compare masks)) <= 1
  end

(* An ear of D is a scheme R whose attributes shared with the rest of D
   all lie inside a single other scheme R' (the witness/parent).  A scheme
   sharing nothing with the rest is an ear with any witness. *)
let find_ear d =
  let candidates = Scheme.Set.elements d in
  let rest_universe s = Scheme.Set.universe (Scheme.Set.remove s d) in
  let rec try_schemes = function
    | [] -> None
    | s :: tail ->
        let shared = Attr.Set.inter s (rest_universe s) in
        let witness =
          Scheme.Set.choose_opt
            (Scheme.Set.filter
               (fun s' -> (not (Scheme.equal s s')) && Attr.Set.subset shared s')
               d)
        in
        (match witness with
        | Some w -> Some (s, w)
        | None -> try_schemes tail)
  in
  try_schemes candidates

let ear_decomposition d =
  let rec peel d acc =
    if Scheme.Set.cardinal d <= 1 then Some (List.rev acc)
    else
      match find_ear d with
      | None -> None
      | Some (ear, parent) -> peel (Scheme.Set.remove ear d) ((ear, parent) :: acc)
  in
  peel d []

let rooted_ear_tree d =
  match ear_decomposition d with
  | None -> None
  | Some elims ->
      let survivors =
        List.fold_left (fun acc (ear, _) -> Scheme.Set.remove ear acc) d elims
      in
      Option.map
        (fun root -> { Jointree.root; elims })
        (Scheme.Set.choose_opt survivors)

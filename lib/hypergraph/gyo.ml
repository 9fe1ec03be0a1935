open Mj_relation

let ear_decomposition d =
  let schemes = Array.of_list (Scheme.Set.elements d) in
  let k = Array.length schemes in
  let search = Ear.make schemes in
  let rec peel n acc =
    if n <= 1 then Some (List.rev acc)
    else
      match Ear.find search with
      | -1 -> None
      | ep ->
          let e = ep / k and p = ep mod k in
          Ear.remove search e;
          peel (n - 1) ((schemes.(e), schemes.(p)) :: acc)
  in
  peel k []

let is_alpha_acyclic d = ear_decomposition d <> None

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

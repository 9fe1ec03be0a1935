open Mj_relation

module Vset = Stdlib.Set.Make (Value)

type family = (string * Vset.t) list

type tree =
  | Leaf of string
  | Node of tree * tree

type op = Inter | Union

let of_ints named =
  List.map
    (fun (name, xs) -> (name, Vset.of_list (List.map Value.int xs)))
    named

let lookup family name =
  match List.assoc_opt name family with
  | Some s -> s
  | None -> invalid_arg (Printf.sprintf "Setops: unknown set %s" name)

let apply = function Inter -> Vset.inter | Union -> Vset.union

let rec leaves = function
  | Leaf n -> [ n ]
  | Node (l, r) -> leaves l @ leaves r

let check_tree family t =
  let ls = leaves t in
  let sorted = List.sort_uniq String.compare ls in
  if List.length sorted <> List.length ls then
    invalid_arg "Setops: a set appears twice in the tree";
  List.iter (fun n -> ignore (lookup family n)) ls

let rec eval_raw op family = function
  | Leaf n -> lookup family n
  | Node (l, r) -> apply op (eval_raw op family l) (eval_raw op family r)

let eval op family t =
  check_tree family t;
  eval_raw op family t

let tau op family t =
  check_tree family t;
  let rec go = function
    | Leaf n -> (lookup family n, 0)
    | Node (l, r) ->
        let sl, cl = go l in
        let sr, cr = go r in
        let s = apply op sl sr in
        (s, cl + cr + Vset.cardinal s)
  in
  snd (go t)

let left_deep = function
  | [] -> invalid_arg "Setops.left_deep: empty family"
  | n :: rest -> List.fold_left (fun acc m -> Node (acc, Leaf m)) (Leaf n) rest

let ascending_linear family =
  let names =
    family
    |> List.sort (fun (_, s1) (_, s2) ->
           Int.compare (Vset.cardinal s1) (Vset.cardinal s2))
    |> List.map fst
  in
  left_deep names

let rec all_trees = function
  | [] -> invalid_arg "Setops.all_trees: empty family"
  | [ n ] -> [ Leaf n ]
  | anchor :: rest ->
      (* Anchored splits generate every unordered partition once. *)
      let rec splits = function
        | [] -> [ ([ anchor ], []) ]
        | x :: tail ->
            List.concat_map
              (fun (l, r) -> [ (x :: l, r); (l, x :: r) ])
              (splits tail)
      in
      splits rest
      |> List.filter (fun (_, r) -> r <> [])
      |> List.concat_map (fun (l, r) ->
             List.concat_map
               (fun tl -> List.map (fun tr -> Node (tl, tr)) (all_trees r))
               (all_trees l))

let optimum op family =
  let names = Array.of_list (List.map fst family) in
  let sets = Array.of_list (List.map snd family) in
  let m = Array.length names in
  if m = 0 then invalid_arg "Setops.optimum: empty family";
  if m > 15 then invalid_arg "Setops.optimum: too many sets for subset DP";
  let card mask =
    let acc = ref None in
    Array.iteri
      (fun i s ->
        if mask land (1 lsl i) <> 0 then
          acc := Some (match !acc with None -> s | Some a -> apply op a s))
      sets;
    Vset.cardinal (Option.get !acc)
  in
  let dp = Subset_dp.create ~units:m card in
  let full = (1 lsl m) - 1 in
  Subset_dp.solve dp ~splits:Subset_dp.iter_anchored_splits full;
  ( Option.get
      (Subset_dp.build dp
         ~leaf:(fun i -> Leaf names.(i))
         ~node:(fun l r -> Node (l, r))
         full),
    Option.get (Subset_dp.cost dp full) )

let optimum_linear op family =
  let names = List.map fst family in
  (* All left-deep orders with the bottom pair canonicalized. *)
  let rec orders chosen remaining =
    match remaining with
    | [] -> [ List.rev chosen ]
    | _ ->
        let candidates =
          match chosen with
          | [ first ] -> List.filter (fun n -> String.compare first n < 0) remaining
          | _ -> remaining
        in
        List.concat_map
          (fun n ->
            orders (n :: chosen) (List.filter (fun m -> m <> n) remaining))
          candidates
  in
  match names with
  | [] -> invalid_arg "Setops.optimum_linear: empty family"
  | [ n ] -> (Leaf n, 0)
  | _ ->
      orders [] names
      |> List.map (fun order ->
             let t = left_deep order in
             (t, tau op family t))
      |> List.fold_left
           (fun acc (t, c) ->
             match acc with
             | Some (_, c') when c' <= c -> acc
             | _ -> Some (t, c))
           None
      |> Option.get

let rec pp_tree fmt = function
  | Leaf n -> Format.pp_print_string fmt n
  | Node (l, r) -> Format.fprintf fmt "(%a . %a)" pp_tree l pp_tree r

open Mj_relation
open Mj_hypergraph

type subspace =
  | All
  | Linear
  | Cp_free
  | Linear_cp_free

let pp_subspace fmt = function
  | All -> Format.pp_print_string fmt "all"
  | Linear -> Format.pp_print_string fmt "linear"
  | Cp_free -> Format.pp_print_string fmt "cp-free"
  | Linear_cp_free -> Format.pp_print_string fmt "linear-cp-free"

let key d = String.concat "|" (List.map Scheme.to_string (Scheme.Set.elements d))

(* ------------------------------------------------------------------ *)
(* Bushy spaces: one memoized split recursion                          *)
(* ------------------------------------------------------------------ *)

let nonempty name d =
  if Scheme.Set.is_empty d then invalid_arg (name ^ ": empty scheme")

(* A fold's strategies as a list, in emission order. *)
let to_list fold = List.rev (fold ~init:[] ~f:(fun acc s -> s :: acc))

(* Fold over every strategy for [d] built by binary splits, each
   unordered split once in [Hypergraph.binary_partitions] order.  With
   [connected], both halves of every step must be connected — for a
   connected [d], exactly the steps that avoid Cartesian products.
   Sub-database strategy lists are memoized in a table private to the
   call; the top level is folded without being materialized. *)
let fold_splits ~connected d ~init ~f =
  let memo = Hashtbl.create 64 in
  let rec fold :
      'a. Hypergraph.t -> init:'a -> f:('a -> Strategy.t -> 'a) -> 'a =
   fun d ~init ~f ->
    match Scheme.Set.elements d with
    | [ s ] -> f init (Strategy.leaf s)
    | _ ->
        List.fold_left
          (fun acc (d1, d2) ->
            if
              connected
              && not (Hypergraph.connected d1 && Hypergraph.connected d2)
            then acc
            else
              List.fold_left
                (fun acc s1 ->
                  List.fold_left
                    (fun acc s2 -> f acc (Strategy.join s1 s2))
                    acc (strategies d2))
                acc (strategies d1))
          init
          (Hypergraph.binary_partitions d)
  and strategies d =
    let k = key d in
    match Hashtbl.find_opt memo k with
    | Some r -> r
    | None ->
        let r = to_list (fold d) in
        Hashtbl.add memo k r;
        r
  in
  fold d ~init ~f

let fold_all d ~init ~f =
  nonempty "Enumerate.all" d;
  fold_splits ~connected:false d ~init ~f

(* All binary combination trees over a list of already-built strategies
   (used to combine the components with Cartesian products). *)
let rec combination_trees = function
  | [] -> []
  | [ s ] -> [ s ]
  | parts ->
      (* Split the component list into two non-empty halves, anchored on
         the first element to generate each unordered split once. *)
      let rec splits anchor = function
        | [] -> [ ([ anchor ], []) ]
        | x :: rest ->
            List.concat_map
              (fun (l, r) -> [ (x :: l, r); (l, x :: r) ])
              (splits anchor rest)
      in
      (match parts with
      | [] -> assert false
      | anchor :: rest ->
          splits anchor rest
          |> List.filter (fun (_, r) -> r <> [])
          |> List.concat_map (fun (l, r) ->
                 List.concat_map
                   (fun s1 ->
                     List.map (Strategy.join s1) (combination_trees r))
                   (combination_trees l)))

(* CP-free: each component's connected strategies, then every
   combination tree over each choice of one strategy per component
   (the Cartesian product of the choices is streamed; the combination
   trees of one choice are a small list for realistic component
   counts). *)
let fold_cp_free d ~init ~f =
  nonempty "Enumerate.cp_free" d;
  let per_component =
    List.map
      (fun c -> to_list (fold_splits ~connected:true c))
      (Hypergraph.components d)
  in
  let rec choices picked options acc =
    match options with
    | [] -> List.fold_left f acc (combination_trees (List.rev picked))
    | opts :: rest ->
        List.fold_left (fun acc s -> choices (s :: picked) rest acc) acc opts
  in
  choices [] per_component init

(* ------------------------------------------------------------------ *)
(* Linear strategies                                                    *)
(* ------------------------------------------------------------------ *)

(* Left-deep orders built front to back; the innermost pair is
   unordered, canonicalized by requiring the first relation to precede
   the second. *)
let fold_linear d ~init ~f =
  nonempty "Enumerate.linear" d;
  let rec orders chosen remaining acc =
    if Scheme.Set.is_empty remaining then
      f acc (Strategy.left_deep (List.rev chosen))
    else
      let candidates = Scheme.Set.elements remaining in
      let candidates =
        match chosen with
        | [ first ] ->
            List.filter (fun s -> Scheme.compare first s < 0) candidates
        | _ -> candidates
      in
      List.fold_left
        (fun acc s -> orders (s :: chosen) (Scheme.Set.remove s remaining) acc)
        acc candidates
  in
  orders [] d init

(* ------------------------------------------------------------------ *)
(* Subspaces: the folds, and the folds collected                        *)
(* ------------------------------------------------------------------ *)

let fold_strategies subspace d ~init ~f =
  match subspace with
  | All -> fold_all d ~init ~f
  | Linear -> fold_linear d ~init ~f
  | Cp_free -> fold_cp_free d ~init ~f
  | Linear_cp_free ->
      fold_linear d ~init ~f:(fun acc s ->
          if Strategy.avoids_cartesian s then f acc s else acc)

let enumerate subspace d = to_list (fold_strategies subspace d)

let all = enumerate All
let linear = enumerate Linear
let cp_free = enumerate Cp_free
let linear_cp_free = enumerate Linear_cp_free

(* ------------------------------------------------------------------ *)
(* Counting                                                             *)
(* ------------------------------------------------------------------ *)

let count_all k =
  if k < 1 then invalid_arg "Enumerate.count_all: need k >= 1";
  (* (2k-3)!! *)
  let rec go i acc = if i > 2 * k - 3 then acc else go (i + 2) (acc * i) in
  go 1 1

let count_linear k =
  if k < 1 then invalid_arg "Enumerate.count_linear: need k >= 1";
  if k = 1 then 1
  else begin
    let rec fact n = if n <= 1 then 1 else n * fact (n - 1) in
    fact k / 2
  end

let count_connected_strategies d =
  let memo = Hashtbl.create 64 in
  let rec go d =
    match Hashtbl.find_opt memo (key d) with
    | Some r -> r
    | None ->
        let result =
          if Scheme.Set.cardinal d = 1 then 1
          else
            Hypergraph.binary_partitions d
            |> List.fold_left
                 (fun acc (d1, d2) ->
                   if Hypergraph.connected d1 && Hypergraph.connected d2 then
                     acc + (go d1 * go d2)
                   else acc)
                 0
        in
        Hashtbl.add memo (key d) result;
        result
  in
  go d

let count_cp_free d =
  let comps = Hypergraph.components d in
  let inner = List.fold_left (fun acc c -> acc * count_connected_strategies c) 1 comps in
  inner * count_all (List.length comps)

let count_linear_connected d =
  (* Left-deep orders whose every prefix is connected; the bottom pair is
     unordered. *)
  let memo = Hashtbl.create 64 in
  let rec go d =
    match Hashtbl.find_opt memo (key d) with
    | Some r -> r
    | None ->
        let result =
          let k = Scheme.Set.cardinal d in
          if k = 1 then 1
          else if k = 2 then 1
          else
            Scheme.Set.fold
              (fun s acc ->
                let rest = Scheme.Set.remove s d in
                if
                  Hypergraph.connected rest
                  && Hypergraph.linked rest (Scheme.Set.singleton s)
                then acc + go rest
                else acc)
              d 0
        in
        Hashtbl.add memo (key d) result;
        result
  in
  go d

let count_linear_cp_free d =
  if Hypergraph.connected d then count_linear_connected d
  else List.length (linear_cp_free d)

let count subspace d =
  match subspace with
  | All -> count_all (Scheme.Set.cardinal d)
  | Linear -> count_linear (Scheme.Set.cardinal d)
  | Cp_free -> count_cp_free d
  | Linear_cp_free -> count_linear_cp_free d

let random_strategy ~rng d =
  if Scheme.Set.is_empty d then
    invalid_arg "Enumerate.random_strategy: empty scheme";
  let forest = ref (List.map Strategy.leaf (Scheme.Set.elements d)) in
  while List.length !forest > 1 do
    let n = List.length !forest in
    let i = Random.State.int rng n in
    let j =
      let j = Random.State.int rng (n - 1) in
      if j >= i then j + 1 else j
    in
    let s1 = List.nth !forest i and s2 = List.nth !forest j in
    let rest =
      List.filteri (fun idx _ -> idx <> i && idx <> j) !forest
    in
    forest := Strategy.join s1 s2 :: rest
  done;
  List.hd !forest

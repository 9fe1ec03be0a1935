open Mj_relation

type tree = (Scheme.t * Scheme.t) list

let neighbours adj s =
  Option.value (Scheme.Map.find_opt s adj) ~default:Scheme.Set.empty

(* Adjacency as a map from scheme to neighbour set. *)
let adjacency edges =
  let add k x m =
    Scheme.Map.update k
      (fun ns -> Some (Scheme.Set.add x (Option.value ns ~default:Scheme.Set.empty)))
      m
  in
  List.fold_left (fun acc (u, v) -> add u v (add v u acc)) Scheme.Map.empty edges

(* Does [subset] induce a connected subgraph of the tree?  A BFS from
   one member that only steps onto members. *)
let connected_within adj subset =
  match Scheme.Set.choose_opt subset with
  | None -> true
  | Some seed ->
      let rec grow frontier seen =
        if Scheme.Set.is_empty frontier then seen
        else
          let next =
            Scheme.Set.fold
              (fun s acc ->
                Scheme.Set.union acc (Scheme.Set.inter (neighbours adj s) subset))
              frontier Scheme.Set.empty
          in
          let fresh = Scheme.Set.diff next seen in
          grow fresh (Scheme.Set.union seen fresh)
      in
      let seed_set = Scheme.Set.singleton seed in
      Scheme.Set.equal (grow seed_set seed_set) subset

let is_spanning_tree d edges =
  List.length edges = Scheme.Set.cardinal d - 1
  && List.for_all (fun (u, v) -> Scheme.Set.mem u d && Scheme.Set.mem v d) edges
  && connected_within (adjacency edges) d

(* Running-intersection property: for every attribute, the schemes
   containing it induce a connected subgraph of the tree.  The
   adjacency is built once per tree, not per attribute. *)
let running_intersection d edges =
  let adj = adjacency edges in
  Attr.Set.for_all
    (fun a -> connected_within adj (Hypergraph.schemes_containing d a))
    (Scheme.Set.universe d)

let is_join_tree d edges = is_spanning_tree d edges && running_intersection d edges

(* The Prüfer code of a tree on nodes 0..n-1 (n >= 2), last entry first,
   and its edges as the decoder lists them: last two nodes, then removals. *)
let pruefer n edges =
  let nbrs = Array.make n [] in
  let link u v = nbrs.(u) <- v :: nbrs.(u) in
  List.iter (fun (u, v) -> link u v; link v u) edges;
  let rec leaf i = match nbrs.(i) with [ _ ] -> i | _ -> leaf (i + 1) in
  let rec strip k code removed =
    let l = leaf 0 in
    if k = 0 then (code, (l, leaf (l + 1)) :: removed)
    else
      let p = List.hd nbrs.(l) in
      nbrs.(l) <- [];
      nbrs.(p) <- List.filter (( <> ) l) nbrs.(p);
      strip (k - 1) (p :: code) ((l, p) :: removed)
  in
  strip (n - 2) [] []

(* The join trees are the spanning trees of weight W* (jointree.mli),
   here Σ_S |S| - |⋃D|.  The search includes or excludes each pair,
   heaviest first (an inclusion joins two components), and drops a
   branch once [needed] more edges of the current weight fall short. *)
let all_join_trees d =
  let nodes = Array.of_list (Scheme.Set.elements d) in
  let n = Array.length nodes in
  let size = Attr.Set.cardinal in
  let total = Scheme.Set.fold (fun s w -> w + size s) d 0 in
  let target = total - size (Scheme.Set.universe d) in
  let weight i j = size (Attr.Set.inter nodes.(i) nodes.(j)) in
  let pairs =
    List.concat (List.init n (fun j -> List.init j (fun i -> (weight i j, i, j))))
    |> List.sort (fun (w, _, _) (w', _, _) -> Int.compare w' w)
  in
  let rec search pairs edges weight needed comp acc =
    match pairs with
    | _ when needed = 0 -> if weight = target then edges :: acc else acc
    | (w, i, j) :: rest when weight + (needed * w) >= target ->
        let ci = comp.(i) and cj = comp.(j) in
        let merged = Array.map (fun c -> if c = cj then ci else c) in
        let acc =
          if ci = cj then acc
          else search rest ((i, j) :: edges) (weight + w) (needed - 1) (merged comp) acc
        in
        search rest edges weight needed comp acc
    | _ -> acc
  in
  if n <= 1 then [ [] ]
  else
    search pairs [] 0 (n - 1) (Array.init n Fun.id) []
    |> List.map (pruefer n)
    (* Colex order of the codes: callers keep the first of equally
       priced trees, so the order is part of the contract. *)
    |> List.sort (fun (c, _) (c', _) -> List.compare Int.compare c c')
    |> List.map (fun (_, t) -> List.map (fun (u, v) -> (nodes.(u), nodes.(v))) t)

let connected_in_some_join_tree d subset =
  if not (Scheme.Set.subset subset d) then
    invalid_arg "Jointree.connected_in_some_join_tree: subset not within D";
  List.exists (fun t -> connected_within (adjacency t) subset) (all_join_trees d)

(* ------------------------------------------------------------------ *)
(* Rooted orientations                                                  *)

type rooted = { root : Scheme.t; elims : (Scheme.t * Scheme.t) list }

let root_at edges root =
  let adj = adjacency edges in
  (* BFS from the root in sorted-neighbour order: the visit sequence is
     a deterministic function of (edges, root), so plans built from a
     rooted tree are reproducible across runs and planes. *)
  let rec bfs frontier seen acc =
    match frontier with
    | [] -> List.rev acc
    | s :: rest ->
        let fresh =
          Scheme.Set.elements (Scheme.Set.diff (neighbours adj s) seen)
        in
        let seen = List.fold_left (fun m c -> Scheme.Set.add c m) seen fresh in
        bfs
          (rest @ fresh)
          seen
          (List.fold_left (fun acc c -> (c, s) :: acc) acc fresh)
  in
  let down = bfs [ root ] (Scheme.Set.singleton root) [] in
  { root; elims = List.rev down }

let join_order r = r.root :: List.rev_map fst r.elims

let linked_in_join_tree_sense d e1 e2 =
  let subs1 = Hypergraph.subsets e1 in
  let subs2 = Hypergraph.subsets e2 in
  List.exists
    (fun f1 ->
      List.exists
        (fun f2 -> connected_in_some_join_tree d (Scheme.Set.union f1 f2))
        subs2)
    subs1

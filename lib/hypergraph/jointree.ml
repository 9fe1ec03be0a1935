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

(* Decode a Prüfer sequence over node indices 0..n-1 into tree edges:
   each entry is joined to the smallest remaining leaf. *)
let pruefer_decode n seq =
  let degree = Array.make n 1 in
  List.iter (fun x -> degree.(x) <- degree.(x) + 1) seq;
  let rec smallest_leaf i = if degree.(i) = 1 then i else smallest_leaf (i + 1) in
  let edges =
    List.fold_left
      (fun edges x ->
        let leaf = smallest_leaf 0 in
        degree.(leaf) <- 0;
        degree.(x) <- degree.(x) - 1;
        (leaf, x) :: edges)
      [] seq
  in
  (* Two nodes of degree one remain. *)
  let u = smallest_leaf 0 in
  (u, smallest_leaf (u + 1)) :: edges

let all_spanning_trees nodes =
  let n = Array.length nodes in
  if n > 8 then invalid_arg "Jointree: database scheme too large (max 8)";
  if n = 1 then [ [] ]
  else if n = 2 then [ [ (nodes.(0), nodes.(1)) ] ]
  else begin
    (* All Prüfer sequences of length n-2 over 0..n-1. *)
    let rec sequences len =
      if len = 0 then [ [] ]
      else
        let shorter = sequences (len - 1) in
        List.concat_map
          (fun tail -> List.init n (fun x -> x :: tail))
          shorter
    in
    List.map
      (fun seq ->
        List.map (fun (u, v) -> (nodes.(u), nodes.(v))) (pruefer_decode n seq))
      (sequences (n - 2))
  end

let all_join_trees d =
  let nodes = Array.of_list (Scheme.Set.elements d) in
  List.filter (running_intersection d) (all_spanning_trees nodes)

let induces_subtree edges subset = connected_within (adjacency edges) subset

let connected_in_some_join_tree d subset =
  if not (Scheme.Set.subset subset d) then
    invalid_arg "Jointree.connected_in_some_join_tree: subset not within D";
  List.exists (fun t -> induces_subtree t subset) (all_join_trees d)

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

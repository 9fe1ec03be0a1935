(* The brute-force join-tree reference and the multi-tree scheme
   generator shared by the acyclic, planner and conditions suites.

   [pruefer_join_trees] is the enumeration [Jointree.all_join_trees]
   replaced: decode every Prüfer sequence over the schemes (indexed in
   [Scheme.compare] order) into a labelled spanning tree and keep the
   join trees.  Sequences run as an odometer over their last entry
   (colex order), the order the planner's tie rule depends on. *)

open Mj_relation
open Mj_hypergraph

(* Each entry is joined to the smallest remaining leaf. *)
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
  let u = smallest_leaf 0 in
  (u, smallest_leaf (u + 1)) :: edges

let all_spanning_trees nodes =
  let n = Array.length nodes in
  if n <= 1 then [ [] ]
  else if n = 2 then [ [ (nodes.(0), nodes.(1)) ] ]
  else
    let rec sequences len =
      if len = 0 then [ [] ]
      else
        List.concat_map
          (fun tail -> List.init n (fun x -> x :: tail))
          (sequences (len - 1))
    in
    List.map
      (fun seq ->
        List.map (fun (u, v) -> (nodes.(u), nodes.(v))) (pruefer_decode n seq))
      (sequences (n - 2))

let pruefer_join_trees d =
  List.filter (Jointree.is_join_tree d)
    (all_spanning_trees (Array.of_list (Scheme.Set.elements d)))

let tree_equal =
  List.equal (fun (u, v) (u', v') -> Scheme.equal u u' && Scheme.equal v v')

(* [k] schemes over four shared attributes A-D, each held with
   probability 1/2, so one attribute can be carried by many schemes.  A
   scheme keeps a private attribute [x<i>] when it drew no shared one
   and otherwise half the time, so some schemes share nothing with the
   rest.  (Duplicates collapse in the set.)  Over seeds 0-999 at k =
   1-7, 89% are α-acyclic, 53% have several join trees and 30% are
   connected with several join trees. *)
let multi_tree_scheme (k, seed) =
  let rng = Random.State.make [| seed; k; 91 |] in
  Scheme.Set.of_list
    (List.init k (fun i ->
         let shared =
           List.filter (fun _ -> Random.State.bool rng) [ "A"; "B"; "C"; "D" ]
         in
         let own =
           if shared = [] || Random.State.bool rng then [ Printf.sprintf "x%d" i ]
           else []
         in
         Attr.Set.of_list (List.map Attr.make (own @ shared))))

let multi_tree_case ~max_k =
  QCheck2.Gen.(pair (int_range 1 max_k) (int_range 0 100_000))

(* The first α-acyclic scheme at or after [seed], for laws that need
   one. *)
let rec acyclic_multi_tree_scheme (k, seed) =
  let d = multi_tree_scheme (k, seed) in
  if Gyo.is_alpha_acyclic d then d else acyclic_multi_tree_scheme (k, seed + 1)

(* Tests for the hypergraph layer: Section 2 connectivity vocabulary, GYO
   reduction, join trees, Fagin acyclicity degrees, and the query-graph
   generators. *)

open Mj_relation
open Mj_hypergraph

let hg = Hypergraph.of_strings
let sset = Scheme.Set.of_strings

let qtest name ?(count = 100) gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~name ~count gen prop)

(* ------------------------------------------------------------------ *)
(* Section 2 examples, verbatim from the paper                          *)
(* ------------------------------------------------------------------ *)

let test_linked_paper_examples () =
  Alcotest.(check bool) "{ABC,BE,DF} linked to {CG,GH}" true
    (Hypergraph.linked (hg [ "ABC"; "BE"; "DF" ]) (hg [ "CG"; "GH" ]));
  Alcotest.(check bool) "{AB,BE,DF} not linked to {CG,GH}" false
    (Hypergraph.linked (hg [ "AB"; "BE"; "DF" ]) (hg [ "CG"; "GH" ]))

let test_disjoint_paper_examples () =
  Alcotest.(check bool) "{ABC,BE,DF} and {CG,GH} disjoint" true
    (Hypergraph.disjoint (hg [ "ABC"; "BE"; "DF" ]) (hg [ "CG"; "GH" ]));
  Alcotest.(check bool) "{ABC,BE,CG,DF} and {CG,GH} not disjoint" false
    (Hypergraph.disjoint (hg [ "ABC"; "BE"; "CG"; "DF" ]) (hg [ "CG"; "GH" ]))

let test_connected_paper_examples () =
  Alcotest.(check bool) "{ABC,BE,DF} unconnected" false
    (Hypergraph.connected (hg [ "ABC"; "BE"; "DF" ]));
  Alcotest.(check bool) "{ABC,BE,AF,DF} connected" true
    (Hypergraph.connected (hg [ "ABC"; "BE"; "AF"; "DF" ]));
  (* "their union remains unconnected" *)
  Alcotest.(check bool) "{ABC,BE,DF,CG,GH} unconnected" false
    (Hypergraph.connected (hg [ "ABC"; "BE"; "DF"; "CG"; "GH" ]))

let test_components_paper_example () =
  let comps = Hypergraph.components (hg [ "ABC"; "BE"; "DF" ]) in
  Alcotest.(check int) "two components" 2 (List.length comps);
  Alcotest.(check bool) "{ABC,BE} is one" true
    (List.exists (Scheme.Set.equal (sset [ "ABC"; "BE" ])) comps);
  Alcotest.(check bool) "{DF} is the other" true
    (List.exists (Scheme.Set.equal (sset [ "DF" ])) comps)

let test_comp_count () =
  Alcotest.(check int) "comp = 3" 3
    (Hypergraph.comp (hg [ "AB"; "CD"; "EF" ]));
  Alcotest.(check int) "comp = 1" 1 (Hypergraph.comp (hg [ "AB"; "BC" ]))

let test_singleton_connected () =
  Alcotest.(check bool) "singleton connected" true
    (Hypergraph.connected (hg [ "AB" ]))

let test_neighbors () =
  let d = hg [ "AB"; "BC"; "CD"; "EF" ] in
  let n = Hypergraph.neighbors d (Scheme.of_string "BC") in
  Alcotest.(check int) "two neighbours" 2 (Scheme.Set.cardinal n);
  Alcotest.(check bool) "AB in" true (Scheme.Set.mem (Scheme.of_string "AB") n);
  Alcotest.(check bool) "self excluded" false
    (Scheme.Set.mem (Scheme.of_string "BC") n)

let test_schemes_containing () =
  let d = hg [ "AB"; "BC"; "CD" ] in
  Alcotest.(check int) "B in two schemes" 2
    (Scheme.Set.cardinal (Hypergraph.schemes_containing d (Attr.make "B")))

(* ------------------------------------------------------------------ *)
(* Subset machinery                                                     *)
(* ------------------------------------------------------------------ *)

let test_subsets_count () =
  Alcotest.(check int) "2^3 - 1" 7
    (List.length (Hypergraph.subsets (hg [ "AB"; "BC"; "CD" ])))

let test_connected_subsets_chain () =
  (* Connected subsets of a 4-chain are the contiguous intervals:
     4 + 3 + 2 + 1 = 10. *)
  let d = hg [ "AB"; "BC"; "CD"; "DE" ] in
  Alcotest.(check int) "10 intervals" 10
    (List.length (Hypergraph.connected_subsets d))

let test_binary_partitions () =
  let d = hg [ "AB"; "BC"; "CD" ] in
  let parts = Hypergraph.binary_partitions d in
  Alcotest.(check int) "2^(3-1) - 1" 3 (List.length parts);
  List.iter
    (fun (l, r) ->
      Alcotest.(check bool) "disjoint halves" true (Scheme.Set.disjoint l r);
      Alcotest.(check bool) "cover" true
        (Scheme.Set.equal (Scheme.Set.union l r) d))
    parts

let test_binary_partitions_small () =
  Alcotest.(check int) "singleton has none" 0
    (List.length (Hypergraph.binary_partitions (hg [ "AB" ])))

let prop_components_partition =
  qtest "components partition the scheme"
    QCheck2.Gen.(int_range 1 7)
    (fun n ->
      let rng = Random.State.make [| n; 42 |] in
      let d = Querygraph.random ~extra_edge_prob:0.2 ~rng (n + 1) in
      let comps = Hypergraph.components d in
      let reunion = List.fold_left Scheme.Set.union Scheme.Set.empty comps in
      Scheme.Set.equal reunion d
      && List.for_all Hypergraph.connected comps
      && List.for_all
           (fun c -> not (Hypergraph.linked c (Scheme.Set.diff d c)))
           comps)

(* ------------------------------------------------------------------ *)
(* GYO and α-acyclicity                                                 *)
(* ------------------------------------------------------------------ *)

let test_gyo_chain_acyclic () =
  Alcotest.(check bool) "chain acyclic" true
    (Gyo.is_alpha_acyclic (Querygraph.chain 5))

let test_gyo_star_acyclic () =
  Alcotest.(check bool) "star acyclic" true
    (Gyo.is_alpha_acyclic (Querygraph.star 5))

let test_gyo_triangle_cyclic () =
  Alcotest.(check bool) "triangle cyclic" false
    (Gyo.is_alpha_acyclic (hg [ "AB"; "BC"; "AC" ]))

let test_gyo_cycle_cyclic () =
  Alcotest.(check bool) "6-cycle cyclic" false
    (Gyo.is_alpha_acyclic (Querygraph.cycle 6))

let test_gyo_triangle_plus_face_acyclic () =
  (* Classic: adding ABC over the triangle makes it α-acyclic. *)
  Alcotest.(check bool) "covered triangle acyclic" true
    (Gyo.is_alpha_acyclic (hg [ "AB"; "BC"; "AC"; "ABC" ]))

let test_ear_decomposition_chain () =
  match Gyo.ear_decomposition (hg [ "AB"; "BC"; "CD" ]) with
  | None -> Alcotest.fail "chain must have an ear decomposition"
  | Some edges ->
      Alcotest.(check int) "two tree edges" 2 (List.length edges);
      Alcotest.(check bool) "valid join tree" true
        (Jointree.is_join_tree (hg [ "AB"; "BC"; "CD" ]) edges)

let test_ear_decomposition_cyclic () =
  Alcotest.(check (option unit)) "no decomposition of a triangle" None
    (Option.map (fun _ -> ()) (Gyo.ear_decomposition (hg [ "AB"; "BC"; "AC" ])))

let prop_gyo_matches_join_tree_existence =
  qtest "alpha-acyclic iff a join tree exists"
    QCheck2.Gen.(int_range 1 120)
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let d = Querygraph.random ~extra_edge_prob:0.3 ~rng 5 in
      Gyo.is_alpha_acyclic d = (Jointree.all_join_trees d <> []))

(* A random hypergraph grown as a tree, each scheme keeping some of an
   earlier scheme's attributes and adding fresh ones, then given a few
   attributes of other schemes, so attributes shared by many schemes,
   contained schemes and cycles all come out.  A [wide] one has 13–16
   schemes of 5–8 fresh attributes each: its universe is wider than the
   62 bits of one int, and about a third of them are acyclic. *)
let random_hypergraph ~wide seed =
  let rng = Random.State.make [| seed; 0xea5 |] in
  let int lo hi = lo + Random.State.int rng (hi - lo + 1) in
  let pick s =
    List.nth (Attr.Set.elements s) (Random.State.int rng (Attr.Set.cardinal s))
  in
  let fresh = ref 0 in
  let k = if wide then int 13 16 else int 2 9 in
  let schemes = Array.make k Attr.Set.empty in
  for i = 0 to k - 1 do
    let kept =
      if i = 0 then Attr.Set.empty
      else
        Attr.Set.filter
          (fun _ -> Random.State.bool rng)
          schemes.(Random.State.int rng i)
    in
    let own =
      List.init
        (if wide then int 5 8 else int 1 2)
        (fun _ ->
          incr fresh;
          Attr.make (Printf.sprintf "a%d" !fresh))
    in
    schemes.(i) <- Attr.Set.union kept (Attr.Set.of_list own)
  done;
  for _ = 1 to int 0 (if wide then 5 else 4) do
    let i = Random.State.int rng k in
    let a = pick schemes.(Random.State.int rng k) in
    schemes.(i) <- Attr.Set.add a schemes.(i)
  done;
  Scheme.Set.of_list (Array.to_list schemes)

(* The definition, on sets: the lowest live scheme whose attributes
   shared with the other live schemes all lie in one of them, and the
   lowest such witness; ears are removed until one scheme is left, or
   none is an ear. *)
let reference_ears d =
  let lowest_ear live =
    List.find_map
      (fun s ->
        let rest = Scheme.Set.remove s live in
        let shared = Attr.Set.inter s (Scheme.Set.universe rest) in
        Option.map
          (fun w -> (s, w))
          (List.find_opt (Attr.Set.subset shared) (Scheme.Set.elements rest)))
      (Scheme.Set.elements live)
  in
  let rec peel live acc =
    if Scheme.Set.cardinal live <= 1 then Some (List.rev acc)
    else
      match lowest_ear live with
      | None -> None
      | Some (e, w) -> peel (Scheme.Set.remove e live) ((e, w) :: acc)
  in
  peel d []

let same_ears =
  Option.equal
    (List.equal (fun (e, w) (e', w') -> Scheme.equal e e' && Scheme.equal w w'))

(* Over grown hypergraphs, narrow and wide, and random query graphs
   (about 30% acyclic). *)
let prop_ear_order =
  qtest "ear decomposition removes the lowest ear at its lowest witness"
    ~count:300
    QCheck2.Gen.(pair (int_range 1 100_000) (int_range 0 2))
    (fun (seed, kind) ->
      let d =
        match kind with
        | 0 ->
            let rng = Random.State.make [| seed |] in
            Querygraph.random ~extra_edge_prob:0.3 ~rng
              (2 + Random.State.int rng 7)
        | _ -> random_hypergraph ~wide:(kind = 2) seed
      in
      (kind < 2 || Attr.Set.cardinal (Scheme.Set.universe d) > 62)
      && same_ears (Gyo.ear_decomposition d) (reference_ears d))

(* One ear search allocates nothing, on a two-word universe too. *)
let test_ear_find_allocation () =
  let search =
    Ear.make (Array.of_list (Scheme.Set.elements (Querygraph.chain 70)))
  in
  let before = Gc.minor_words () in
  for _ = 1 to 100 do
    ignore (Ear.find search)
  done;
  Alcotest.(check (float 0.)) "minor words" 0. (Gc.minor_words () -. before)

(* ------------------------------------------------------------------ *)
(* Join trees                                                           *)
(* ------------------------------------------------------------------ *)

let test_join_tree_valid () =
  let d = hg [ "AB"; "BC"; "CD" ] in
  let good = [ (Scheme.of_string "AB", Scheme.of_string "BC");
               (Scheme.of_string "BC", Scheme.of_string "CD") ] in
  let bad = [ (Scheme.of_string "AB", Scheme.of_string "CD");
              (Scheme.of_string "BC", Scheme.of_string "CD") ] in
  Alcotest.(check bool) "path tree valid" true (Jointree.is_join_tree d good);
  (* In [bad], AB and BC share B but the path AB-CD-BC has CD, which does
     not contain B: running intersection fails. *)
  Alcotest.(check bool) "bad tree rejected" false (Jointree.is_join_tree d bad)

let test_all_join_trees_chain () =
  let d = hg [ "AB"; "BC"; "CD" ] in
  let trees = Jointree.all_join_trees d in
  Alcotest.(check int) "unique join tree of a 3-chain" 1 (List.length trees)

let test_all_join_trees_triangle () =
  Alcotest.(check int) "triangle has none" 0
    (List.length (Jointree.all_join_trees (hg [ "AB"; "BC"; "AC" ])))

let test_connected_in_join_tree () =
  let d = hg [ "AB"; "BC"; "CD" ] in
  Alcotest.(check bool) "{AB,BC} induces subtree" true
    (Jointree.connected_in_some_join_tree d (sset [ "AB"; "BC" ]));
  Alcotest.(check bool) "{AB,CD} does not" false
    (Jointree.connected_in_some_join_tree d (sset [ "AB"; "CD" ]))

let test_linked_join_tree_sense () =
  let d = hg [ "AB"; "BC"; "CD" ] in
  Alcotest.(check bool) "{AB} linked to {CD} via subsets" false
    (Jointree.linked_in_join_tree_sense d (sset [ "AB" ]) (sset [ "CD" ]));
  Alcotest.(check bool) "{AB} linked to {BC,CD}" true
    (Jointree.linked_in_join_tree_sense d (sset [ "AB" ]) (sset [ "BC"; "CD" ]))

(* ------------------------------------------------------------------ *)
(* Fagin degrees                                                        *)
(* ------------------------------------------------------------------ *)

let test_beta_triangle () =
  Alcotest.(check bool) "triangle not beta" false
    (Acyclicity.is_beta_acyclic (hg [ "AB"; "BC"; "AC" ]));
  (* α-acyclic but β-cyclic: the covered triangle. *)
  let covered = hg [ "AB"; "BC"; "AC"; "ABC" ] in
  Alcotest.(check bool) "covered triangle alpha" true
    (Gyo.is_alpha_acyclic covered);
  Alcotest.(check bool) "covered triangle not beta" false
    (Acyclicity.is_beta_acyclic covered)

let test_beta_cycle_found () =
  match Acyclicity.find_beta_cycle (hg [ "AB"; "BC"; "AC" ]) with
  | None -> Alcotest.fail "triangle must contain a beta-cycle"
  | Some c -> Alcotest.(check bool) "length >= 3" true (List.length c >= 3)

let test_beta_cycle_consistency () =
  (* The cycle test agrees with the subset-based test on a few schemes. *)
  let cases =
    [ [ "AB"; "BC"; "CD" ]; [ "AB"; "BC"; "AC" ]; [ "AB"; "ABC"; "BC" ];
      [ "AB"; "BC"; "AC"; "ABC" ]; [ "ABC"; "CDE"; "EFA" ] ]
  in
  List.iter
    (fun names ->
      let d = hg names in
      Alcotest.(check bool)
        (String.concat "," names)
        (Acyclicity.is_beta_acyclic d)
        (Acyclicity.find_beta_cycle d = None))
    cases

let test_gamma_separation () =
  (* {AB, ABC, BC} is the classic beta-but-not-gamma example. *)
  let d = hg [ "AB"; "ABC"; "BC" ] in
  Alcotest.(check bool) "beta acyclic" true (Acyclicity.is_beta_acyclic d);
  Alcotest.(check bool) "not gamma acyclic" false (Acyclicity.is_gamma_acyclic d)

let test_gamma_chain () =
  Alcotest.(check bool) "chain gamma acyclic" true
    (Acyclicity.is_gamma_acyclic (Querygraph.chain 5))

let test_gamma_star () =
  Alcotest.(check bool) "star gamma acyclic" true
    (Acyclicity.is_gamma_acyclic (Querygraph.star 5))

let test_gamma_implies_beta () =
  let cases =
    [ [ "AB"; "BC"; "CD" ]; [ "AB"; "BC"; "AC" ]; [ "AB"; "ABC"; "BC" ];
      [ "ABC"; "BCD"; "CDE" ]; [ "AB"; "AC"; "AD" ] ]
  in
  List.iter
    (fun names ->
      let d = hg names in
      if Acyclicity.is_gamma_acyclic d then
        Alcotest.(check bool)
          (String.concat "," names ^ ": gamma => beta")
          true (Acyclicity.is_beta_acyclic d))
    cases

(* ------------------------------------------------------------------ *)
(* Query graph generators                                               *)
(* ------------------------------------------------------------------ *)

let test_chain_shape () =
  let d = Querygraph.chain 6 in
  Alcotest.(check int) "6 relations" 6 (Scheme.Set.cardinal d);
  Alcotest.(check bool) "connected" true (Hypergraph.connected d);
  Alcotest.(check int) "5 query edges" 5 (List.length (Querygraph.edges d))

let test_star_shape () =
  let d = Querygraph.star 6 in
  Alcotest.(check int) "6 relations" 6 (Scheme.Set.cardinal d);
  Alcotest.(check int) "5 query edges" 5 (List.length (Querygraph.edges d));
  Alcotest.(check bool) "acyclic" true (Gyo.is_alpha_acyclic d)

let test_cycle_shape () =
  let d = Querygraph.cycle 5 in
  Alcotest.(check int) "5 relations" 5 (Scheme.Set.cardinal d);
  Alcotest.(check int) "5 query edges" 5 (List.length (Querygraph.edges d));
  Alcotest.(check bool) "cyclic" false (Gyo.is_alpha_acyclic d)

let test_clique_shape () =
  let d = Querygraph.clique 5 in
  Alcotest.(check int) "5 relations" 5 (Scheme.Set.cardinal d);
  Alcotest.(check int) "10 query edges" 10 (List.length (Querygraph.edges d))

let test_chain_invalid () =
  Alcotest.check_raises "n = 0"
    (Invalid_argument "Querygraph.chain: need n >= 1") (fun () ->
      ignore (Querygraph.chain 0))

let prop_random_connected =
  qtest "random query graphs are connected"
    QCheck2.Gen.(pair (int_range 1 10) (int_range 0 1000))
    (fun (n, seed) ->
      let rng = Random.State.make [| seed |] in
      Hypergraph.connected (Querygraph.random ~rng n))

let prop_random_size =
  qtest "random query graphs have n relations"
    QCheck2.Gen.(pair (int_range 1 10) (int_range 0 1000))
    (fun (n, seed) ->
      let rng = Random.State.make [| seed |] in
      Scheme.Set.cardinal (Querygraph.random ~extra_edge_prob:0.5 ~rng n) = n)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "mj_hypergraph"
    [
      ( "section2",
        [
          Alcotest.test_case "linked (paper)" `Quick test_linked_paper_examples;
          Alcotest.test_case "disjoint (paper)" `Quick
            test_disjoint_paper_examples;
          Alcotest.test_case "connected (paper)" `Quick
            test_connected_paper_examples;
          Alcotest.test_case "components (paper)" `Quick
            test_components_paper_example;
          Alcotest.test_case "comp count" `Quick test_comp_count;
          Alcotest.test_case "singleton connected" `Quick
            test_singleton_connected;
          Alcotest.test_case "neighbors" `Quick test_neighbors;
          Alcotest.test_case "schemes_containing" `Quick
            test_schemes_containing;
        ] );
      ( "subsets",
        [
          Alcotest.test_case "subset count" `Quick test_subsets_count;
          Alcotest.test_case "connected subsets of chain" `Quick
            test_connected_subsets_chain;
          Alcotest.test_case "binary partitions" `Quick test_binary_partitions;
          Alcotest.test_case "binary partitions singleton" `Quick
            test_binary_partitions_small;
          prop_components_partition;
        ] );
      ( "gyo",
        [
          Alcotest.test_case "chain acyclic" `Quick test_gyo_chain_acyclic;
          Alcotest.test_case "star acyclic" `Quick test_gyo_star_acyclic;
          Alcotest.test_case "triangle cyclic" `Quick test_gyo_triangle_cyclic;
          Alcotest.test_case "cycle cyclic" `Quick test_gyo_cycle_cyclic;
          Alcotest.test_case "covered triangle acyclic" `Quick
            test_gyo_triangle_plus_face_acyclic;
          Alcotest.test_case "ear decomposition chain" `Quick
            test_ear_decomposition_chain;
          Alcotest.test_case "ear decomposition cyclic" `Quick
            test_ear_decomposition_cyclic;
          prop_gyo_matches_join_tree_existence;
          prop_ear_order;
          Alcotest.test_case "ear search allocates nothing" `Quick
            test_ear_find_allocation;
        ] );
      ( "jointree",
        [
          Alcotest.test_case "validity" `Quick test_join_tree_valid;
          Alcotest.test_case "all join trees of chain" `Quick
            test_all_join_trees_chain;
          Alcotest.test_case "all join trees of triangle" `Quick
            test_all_join_trees_triangle;
          Alcotest.test_case "connected in join-tree sense" `Quick
            test_connected_in_join_tree;
          Alcotest.test_case "linked in join-tree sense" `Quick
            test_linked_join_tree_sense;
        ] );
      ( "acyclicity",
        [
          Alcotest.test_case "beta: triangles" `Quick test_beta_triangle;
          Alcotest.test_case "beta cycle found" `Quick test_beta_cycle_found;
          Alcotest.test_case "beta cycle consistency" `Quick
            test_beta_cycle_consistency;
          Alcotest.test_case "gamma separation" `Quick test_gamma_separation;
          Alcotest.test_case "gamma chain" `Quick test_gamma_chain;
          Alcotest.test_case "gamma star" `Quick test_gamma_star;
          Alcotest.test_case "gamma implies beta" `Quick
            test_gamma_implies_beta;
        ] );
      ( "querygraph",
        [
          Alcotest.test_case "chain" `Quick test_chain_shape;
          Alcotest.test_case "star" `Quick test_star_shape;
          Alcotest.test_case "cycle" `Quick test_cycle_shape;
          Alcotest.test_case "clique" `Quick test_clique_shape;
          Alcotest.test_case "chain invalid" `Quick test_chain_invalid;
          prop_random_connected;
          prop_random_size;
        ] );
    ]

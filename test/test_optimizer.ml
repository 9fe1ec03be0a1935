(* Tests for the optimizer layer.  The strongest checks are
   cross-validations: DPsize, DPsub and DPccp must agree with the core
   subset-DP on every subspace; Selinger must match the linear subspaces;
   IKKBZ must match product-free left-deep DP under the join-graph cost
   model; the csg-cmp pair counts must match the published closed
   forms. *)

open Mj_relation
open Mj_hypergraph
open Multijoin
open Mj_optimizer

let qtest name ?(count = 100) gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~name ~count gen prop)

let gen_graph ?(max_n = 6) ?(extra = 0.3) () =
  let open QCheck2.Gen in
  let* n = int_range 2 max_n in
  let* seed = int_range 0 100_000 in
  let rng = Random.State.make [| seed; n; 31 |] in
  return (Querygraph.random ~extra_edge_prob:extra ~rng n)

(* A deterministic synthetic catalog over a scheme set: cardinalities are
   powers of two, join attributes get distinct counts dividing the
   cardinality, so every estimate is an exact integer. *)
let catalog_of ~seed d =
  let rng = Random.State.make [| seed; 101 |] in
  Catalog.synthetic
    (List.map
       (fun scheme ->
         let card = 1 lsl (2 + Random.State.int rng 5) in
         let distincts =
           List.map
             (fun a -> (a, max 1 (card lsr Random.State.int rng 3)))
             (Attr.Set.elements scheme)
         in
         (scheme, card, distincts))
       (Scheme.Set.elements d))

let gen_graph_and_oracle =
  let open QCheck2.Gen in
  let* d = gen_graph () in
  let* seed = int_range 0 100_000 in
  return (d, Estimate.of_catalog (catalog_of ~seed d))

let cost_of = function
  | Some (r : Optimal.result) -> Some r.cost
  | None -> None

(* ------------------------------------------------------------------ *)
(* Catalog                                                              *)
(* ------------------------------------------------------------------ *)

let test_catalog_of_database () =
  let db = Mj_workload.Scenarios.example1 in
  let cat = Catalog.of_database db in
  let ab = Scheme.of_string "AB" in
  Alcotest.(check int) "card AB" 4 (Catalog.cardinality cat ab);
  Alcotest.(check int) "distinct B in AB" 2
    (Catalog.distinct cat ab (Attr.make "B"));
  Alcotest.(check int) "distinct A in AB" 4
    (Catalog.distinct cat ab (Attr.make "A"))

let test_catalog_synthetic_validation () =
  let ab = Scheme.of_string "AB" in
  (match Catalog.synthetic [ (ab, -1, []) ] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "negative cardinality must be rejected");
  (match Catalog.synthetic [ (ab, 4, [ (Attr.make "Z", 2) ]) ] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "attribute outside scheme must be rejected");
  (* Unlisted attributes default to key-like. *)
  let cat = Catalog.synthetic [ (ab, 8, [ (Attr.make "B", 2) ]) ] in
  Alcotest.(check int) "listed" 2 (Catalog.distinct cat ab (Attr.make "B"));
  Alcotest.(check int) "default" 8 (Catalog.distinct cat ab (Attr.make "A"))

(* ------------------------------------------------------------------ *)
(* Estimation                                                           *)
(* ------------------------------------------------------------------ *)

let test_estimate_product () =
  let ab = Scheme.of_string "AB" and cd = Scheme.of_string "CD" in
  let cat = Catalog.synthetic [ (ab, 4, []); (cd, 7, []) ] in
  let est = Estimate.of_catalog cat in
  Alcotest.(check int) "product = 28" 28
    (est (Scheme.Set.of_list [ ab; cd ]))

let test_estimate_key_join () =
  (* B is a key of BC (distinct = card): |AB ⋈ BC| = |AB|. *)
  let ab = Scheme.of_string "AB" and bc = Scheme.of_string "BC" in
  let cat =
    Catalog.synthetic
      [ (ab, 10, [ (Attr.make "B", 5) ]); (bc, 20, [ (Attr.make "B", 20) ]) ]
  in
  let est = Estimate.of_catalog cat in
  Alcotest.(check int) "key join" 10 (est (Scheme.Set.of_list [ ab; bc ]))

let test_estimate_example1 () =
  (* With exact statistics, the estimate for AB ⋈ BC is
     4*4 / max(2,2) = 8 — close to, and deliberately not exactly, the
     true 10: the estimator assumes uniformity, Example 1's data is
     skewed.  This gap is the paper's point about such assumptions. *)
  let cat = Catalog.of_database Mj_workload.Scenarios.example1 in
  let est = Estimate.of_catalog cat in
  Alcotest.(check int) "uniformity underestimates" 8
    (est (Scheme.Set.of_strings [ "AB"; "BC" ]))

let test_estimate_singleton () =
  let ab = Scheme.of_string "AB" in
  let cat = Catalog.synthetic [ (ab, 42, []) ] in
  Alcotest.(check int) "singleton = card" 42
    (Estimate.of_catalog cat (Scheme.Set.singleton ab))

let test_graph_model () =
  let d = Querygraph.chain 3 in
  let card _ = 8.0 in
  let selectivity s1 s2 = if Attr.Set.disjoint s1 s2 then 1.0 else 0.25 in
  let est = Estimate.graph_model ~card ~selectivity d in
  let schemes = Scheme.Set.elements d in
  let pairwise = Scheme.Set.of_list [ List.nth schemes 0; List.nth schemes 1 ] in
  Alcotest.(check int) "8*8/4" 16 (est pairwise);
  Alcotest.(check int) "full chain 8^3/16" 32 (est d)

let test_edge_selectivities () =
  let ab = Scheme.of_string "AB" and bc = Scheme.of_string "BC" in
  let cat =
    Catalog.synthetic
      [ (ab, 10, [ (Attr.make "B", 5) ]); (bc, 20, [ (Attr.make "B", 4) ]) ]
  in
  let d = Scheme.Set.of_list [ ab; bc ] in
  match Estimate.edge_selectivities cat d with
  | [ (_, _, sel) ] ->
      Alcotest.(check (float 1e-9)) "1/max(5,4)" 0.2 sel
  | other -> Alcotest.failf "expected one edge, got %d" (List.length other)

(* ------------------------------------------------------------------ *)
(* DP enumerators: cross-validation                                     *)
(* ------------------------------------------------------------------ *)

let prop_dp_variants_agree_cp_free =
  qtest "DPsize = DPsub = DPccp = core DP (product-free)" ~count:60
    gen_graph_and_oracle (fun (d, oracle) ->
      let reference =
        cost_of (Optimal.optimum_with_oracle ~subspace:Enumerate.Cp_free ~oracle d)
      in
      (* The product-free DP variants only exist for connected schemes;
         random graphs here are connected. *)
      cost_of (Dpsize.plan ~allow_cp:false ~oracle d) = reference
      && cost_of (Dpsub.plan ~allow_cp:false ~oracle d) = reference
      && cost_of (Dpccp.plan ~oracle d) = reference)

let prop_dp_variants_agree_full =
  qtest "DPsize = DPsub = core DP (with products)" ~count:60
    gen_graph_and_oracle (fun (d, oracle) ->
      let reference =
        cost_of (Optimal.optimum_with_oracle ~subspace:Enumerate.All ~oracle d)
      in
      cost_of (Dpsize.plan ~allow_cp:true ~oracle d) = reference
      && cost_of (Dpsub.plan ~allow_cp:true ~oracle d) = reference)

let prop_selinger_matches_core =
  qtest "Selinger `Never/`Always = core linear DP" ~count:60
    gen_graph_and_oracle (fun (d, oracle) ->
      cost_of (Selinger.plan ~cp:`Never ~oracle d)
      = cost_of
          (Optimal.optimum_with_oracle ~subspace:Enumerate.Linear_cp_free
             ~oracle d)
      && cost_of (Selinger.plan ~cp:`Always ~oracle d)
         = cost_of
             (Optimal.optimum_with_oracle ~subspace:Enumerate.Linear ~oracle d))

let prop_plans_are_valid =
  qtest "optimizer plans are valid strategies over D" ~count:60
    gen_graph_and_oracle (fun (d, oracle) ->
      let check = function
        | None -> true
        | Some (r : Optimal.result) ->
            Strategy.check r.strategy = Ok ()
            && Scheme.Set.equal (Strategy.schemes r.strategy) d
      in
      check (Dpccp.plan ~oracle d)
      && check (Selinger.plan ~cp:`When_needed ~oracle d)
      && check (Some (Greedy.goo ~oracle d))
      && check (Some (Greedy.smallest_first ~oracle d)))

let prop_heuristics_dominated_by_dp =
  qtest "greedy costs dominate the exact optimum" ~count:60
    gen_graph_and_oracle (fun (d, oracle) ->
      let opt =
        match Optimal.optimum_with_oracle ~subspace:Enumerate.All ~oracle d with
        | Some r -> r.cost
        | None -> assert false
      in
      (Greedy.goo ~oracle d).cost >= opt
      && (Greedy.smallest_first ~oracle d).cost >= opt)

let prop_selinger_policy_ordering =
  qtest "linear subspaces: cp-free >= cp-always optimum" ~count:60
    gen_graph_and_oracle (fun (d, oracle) ->
      match Selinger.plan ~cp:`Never ~oracle d, Selinger.plan ~cp:`Always ~oracle d with
      | Some never, Some always -> always.cost <= never.cost
      | None, Some _ -> true
      | _, None -> false)

(* ------------------------------------------------------------------ *)
(* IKKBZ                                                                *)
(* ------------------------------------------------------------------ *)

let gen_tree_model =
  let open QCheck2.Gen in
  let* n = int_range 2 7 in
  let* seed = int_range 0 100_000 in
  let rng = Random.State.make [| seed; n; 41 |] in
  let d = Querygraph.random ~extra_edge_prob:0.0 ~rng n in
  (* Power-of-two cardinalities and selectivities keep every estimate an
     exact integer, so float IKKBZ and integer DP cannot disagree by
     rounding. *)
  let cards =
    List.map
      (fun s -> (s, float_of_int (1 lsl (2 + Random.State.int rng 4))))
      (Scheme.Set.elements d)
  in
  let card s = List.assoc s cards in
  let sel_table = Hashtbl.create 16 in
  Scheme.Set.iter
    (fun s1 ->
      Scheme.Set.iter
        (fun s2 ->
          if Scheme.compare s1 s2 < 0 && not (Attr.Set.disjoint s1 s2) then begin
            let sel = 1.0 /. float_of_int (1 lsl (1 + Random.State.int rng 3)) in
            Hashtbl.add sel_table (Scheme.to_string s1, Scheme.to_string s2) sel
          end)
        d)
    d;
  let selectivity s1 s2 =
    let key =
      if Scheme.compare s1 s2 < 0 then (Scheme.to_string s1, Scheme.to_string s2)
      else (Scheme.to_string s2, Scheme.to_string s1)
    in
    match Hashtbl.find_opt sel_table key with Some s -> s | None -> 1.0
  in
  return (d, card, selectivity)

let prop_ikkbz_optimal_on_trees =
  qtest "IKKBZ = product-free left-deep DP on tree graphs" ~count:80
    gen_tree_model (fun (d, card, selectivity) ->
      let oracle = Estimate.graph_model ~card ~selectivity d in
      let ikkbz = Ikkbz.plan ~card ~selectivity d in
      match Selinger.plan ~cp:`Never ~oracle d with
      | Some dp -> ikkbz.cost = dp.cost
      | None -> false)

let prop_ikkbz_order_connected_prefixes =
  qtest "IKKBZ orders keep every prefix connected" ~count:80 gen_tree_model
    (fun (d, card, selectivity) ->
      let order = Ikkbz.order ~card ~selectivity d in
      let rec prefixes acc = function
        | [] -> true
        | s :: rest ->
            let acc = Scheme.Set.add s acc in
            Hypergraph.connected acc && prefixes acc rest
      in
      prefixes Scheme.Set.empty order)

let test_ikkbz_rejects_cycles () =
  let d = Querygraph.cycle 4 in
  match Ikkbz.order ~card:(fun _ -> 8.0) ~selectivity:(fun _ _ -> 0.5) d with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "cyclic query graphs must be rejected"

let test_ikkbz_chain_example () =
  (* Chain R0–R1–R2 with cards 64, 4, 64, selectivities 1/16 and 1/2:
     starting from the small middle relation is optimal. *)
  let d = Querygraph.chain 3 in
  let schemes = Scheme.Set.elements d in
  let r01 = List.nth schemes 0 and r12 = List.nth schemes 1
  and r23 = List.nth schemes 2 in
  let card s =
    if Scheme.equal s r12 then 4.0 else 64.0
  in
  let selectivity s1 s2 =
    let pair a b = (Scheme.equal s1 a && Scheme.equal s2 b)
                   || (Scheme.equal s1 b && Scheme.equal s2 a) in
    if pair r01 r12 then 1.0 /. 16.0
    else if pair r12 r23 then 0.5
    else 1.0
  in
  let order = Ikkbz.order ~card ~selectivity d in
  Alcotest.(check bool) "starts at a cheap end" true
    (Scheme.equal (List.hd order) r12 || Scheme.equal (List.hd order) r01)

(* ------------------------------------------------------------------ *)
(* Search space: csg-cmp pair counts vs closed forms                    *)
(* ------------------------------------------------------------------ *)

let test_ccp_chain () =
  List.iter
    (fun n ->
      Alcotest.(check int)
        (Printf.sprintf "chain %d" n)
        (Search_space.chain_pairs n)
        (Search_space.measured_pairs (Querygraph.chain n)))
    [ 2; 3; 4; 5; 6; 7; 8 ]

let test_ccp_cycle () =
  List.iter
    (fun n ->
      Alcotest.(check int)
        (Printf.sprintf "cycle %d" n)
        (Search_space.cycle_pairs n)
        (Search_space.measured_pairs (Querygraph.cycle n)))
    [ 3; 4; 5; 6; 7 ]

let test_ccp_star () =
  List.iter
    (fun n ->
      Alcotest.(check int)
        (Printf.sprintf "star %d" n)
        (Search_space.star_pairs n)
        (Search_space.measured_pairs (Querygraph.star n)))
    [ 2; 3; 4; 5; 6; 7 ]

let test_ccp_clique () =
  List.iter
    (fun n ->
      Alcotest.(check int)
        (Printf.sprintf "clique %d" n)
        (Search_space.clique_pairs n)
        (Search_space.measured_pairs (Querygraph.clique n)))
    [ 2; 3; 4; 5; 6; 7 ]

let prop_ccp_pairs_unique_and_valid =
  qtest "csg-cmp pairs are disjoint, linked, connected" ~count:40
    (gen_graph ~max_n:6 ()) (fun d ->
      let g = Bitdb.make d in
      let pairs = Dpccp.csg_cmp_pairs d in
      let canon (a, b) = if a < b then (a, b) else (b, a) in
      let canonical = List.map canon pairs in
      List.length (List.sort_uniq compare canonical) = List.length pairs
      && List.for_all
           (fun (m1, m2) ->
             m1 land m2 = 0
             && Bitdb.is_connected g m1
             && Bitdb.is_connected g m2
             && Bitdb.linked g m1 m2)
           pairs)

let test_dpsize_inspects_more_than_ccp () =
  (* On a chain, DPsize inspects many invalid pairs; DPccp inspects
     exactly the valid ones. *)
  let d = Querygraph.chain 6 in
  Alcotest.(check bool) "dpsize >= ccp" true
    (Dpsize.pairs_considered ~allow_cp:false d
    >= Search_space.measured_pairs d);
  Alcotest.(check bool) "dpsub >= ccp" true
    (Dpsub.pairs_considered ~allow_cp:false d
    >= Search_space.measured_pairs d)

let test_search_space_table () =
  let rows = Search_space.table ~shape:Querygraph.chain [ 2; 4 ] in
  match rows with
  | [ r2; r4 ] ->
      Alcotest.(check int) "n=2 all" 1 r2.Search_space.all_strategies;
      Alcotest.(check int) "n=4 all" 15 r4.Search_space.all_strategies;
      Alcotest.(check int) "n=4 linear" 12 r4.Search_space.linear_strategies;
      Alcotest.(check int) "n=4 linear cp-free" 4 r4.Search_space.linear_cp_free;
      Alcotest.(check int) "n=4 ccp" 10 r4.Search_space.ccp_pairs
  | _ -> Alcotest.fail "expected two rows"

(* ------------------------------------------------------------------ *)
(* Tie-break goldens                                                    *)
(* ------------------------------------------------------------------ *)

(* The DP variants agree on costs, but which of several equal-cost plans
   wins depends on each algorithm's split order and on the rule that a
   plan is replaced only by a strictly cheaper one.  These goldens pin
   the winning plan itself, for every variant, under an oracle that
   makes most plans tie and under a scrambled one. *)

let tie_heavy s = 10 * Scheme.Set.cardinal s

let scrambled s =
  let key =
    String.concat "|" (List.map Scheme.to_string (Scheme.Set.elements s))
  in
  let h =
    String.fold_left (fun h c -> ((h * 31) + Char.code c) land 0xffffff) 7 key
  in
  1 + (h mod 997)

let show_plan = function
  | None -> "none"
  | Some (r : Optimal.result) ->
      Printf.sprintf "%s %d" (Strategy.to_string r.strategy) r.cost

let subspaces =
  Enumerate.
    [
      ("all", All); ("linear", Linear); ("cp-free", Cp_free);
      ("linear-cp-free", Linear_cp_free);
    ]

(* [makespan] is off for unconnected schemes: the makespan DP's law
   against the enumeration covers those. *)
let dp_variants ?(makespan = true) oracle d =
  [
    ("dpsize", Dpsize.plan ~allow_cp:false ~oracle d);
    ("dpsize+cp", Dpsize.plan ~allow_cp:true ~oracle d);
    ("dpsub", Dpsub.plan ~allow_cp:false ~oracle d);
    ("dpsub+cp", Dpsub.plan ~allow_cp:true ~oracle d);
    ("dpccp", Dpccp.plan ~oracle d);
    ("selinger never", Selinger.plan ~cp:`Never ~oracle d);
    ("selinger when-needed", Selinger.plan ~cp:`When_needed ~oracle d);
    ("selinger always", Selinger.plan ~cp:`Always ~oracle d);
  ]
  @ List.map
      (fun (name, subspace) ->
        ("optimal " ^ name, Optimal.optimum_with_oracle ~subspace ~oracle d))
      subspaces
  @ (if makespan then
       List.map
         (fun (name, subspace) ->
           ( "makespan " ^ name,
             Mj_engine.Parallel.optimum_makespan ~subspace ~oracle d ))
         subspaces
     else [])
  |> List.map (fun (name, r) -> name ^ ": " ^ show_plan r)

let golden_schemes =
  [
    ("chain6", Querygraph.chain 6, true);
    ("star5", Querygraph.star 5, true);
    ("cycle5", Querygraph.cycle 5, true);
    ("clique4", Querygraph.clique 4, true);
    ("three-components", Hypergraph.of_strings [ "AB"; "BC"; "CD"; "EF"; "GH" ], false);
  ]

let golden_oracles = [ ("tie-heavy", tie_heavy); ("scrambled", scrambled) ]

let setops_families =
  [
    ("same5", Setops.of_ints (List.map (fun n -> (n, [ 1; 2; 3 ])) [ "A"; "B"; "C"; "D"; "E" ]));
    ( "shifted5",
      Setops.of_ints
        (List.mapi (fun i n -> (n, [ i; i + 1; i + 2 ])) [ "A"; "B"; "C"; "D"; "E" ]) );
  ]

let setops_variants family =
  List.map
    (fun (name, op) ->
      let tree, cost = Setops.optimum op family in
      Format.asprintf "%s: %a %d" name Setops.pp_tree tree cost)
    [ ("inter", Setops.Inter); ("union", Setops.Union) ]

(* The OBS bench's search-effort table: pairs, entries, pruned and
   estimate calls of each bottom-up DP under a uniform synthetic
   catalog. *)
let counter_table d =
  let oracle =
    Estimate.of_catalog
      (Catalog.synthetic
         (List.map (fun s -> (s, 64, [])) (Scheme.Set.elements d)))
  in
  List.map
    (fun (name, run) ->
      let obs = Mj_obs.Obs.make () in
      ignore (run ~obs ~oracle d);
      let v c =
        Option.value ~default:0
          (List.assoc_opt ("opt." ^ c) (Mj_obs.Obs.counters obs))
      in
      Printf.sprintf "%s %d %d %d %d" name (v "pairs_inspected")
        (v "dp_entries") (v "plans_pruned") (v "estimate_calls"))
    [
      ("dpsize", fun ~obs ~oracle d -> Dpsize.plan ~obs ~oracle d);
      ("dpsub", fun ~obs ~oracle d -> Dpsub.plan ~obs ~oracle d);
      ("dpccp", fun ~obs ~oracle d -> Dpccp.plan ~obs ~oracle d);
      ("selinger", fun ~obs ~oracle d -> Selinger.plan ~obs ~cp:`Never ~oracle d);
    ]

let counter_queries =
  [
    ("chain10", Querygraph.chain 10);
    ("star10", Querygraph.star 10);
    ("clique8", Querygraph.clique 8);
  ]

let dp_goldens =
  [
    ( "chain6", "tie-heavy",
    [
      "dpsize: ((c0,c1 * c1,c2) * ((c2,c3 * c3,c4) * (c4,c5 * c5,c6))) 160";
      "dpsize+cp: ((c0,c1 * c1,c2) * ((c2,c3 * c3,c4) * (c4,c5 * c5,c6))) 160";
      "dpsub: (((c0,c1 * c1,c2) * (c2,c3 * c3,c4)) * (c4,c5 * c5,c6)) 160";
      "dpsub+cp: (((c0,c1 * c5,c6) * (c3,c4 * c4,c5)) * (c1,c2 * c2,c3)) 160";
      "dpccp: ((c0,c1 * c1,c2) * ((c2,c3 * c3,c4) * (c4,c5 * c5,c6))) 160";
      "selinger never: (((((c0,c1 * c1,c2) * c2,c3) * c3,c4) * c4,c5) * c5,c6) 200";
      "selinger when-needed: (((((c0,c1 * c1,c2) * c2,c3) * c3,c4) * c4,c5) * c5,c6) 200";
      "selinger always: (((((c0,c1 * c1,c2) * c2,c3) * c3,c4) * c4,c5) * c5,c6) 200";
      "optimal all: ((c0,c1 * c1,c2) * ((c2,c3 * c3,c4) * (c4,c5 * c5,c6))) 160";
      "optimal linear: (((((c0,c1 * c1,c2) * c2,c3) * c3,c4) * c4,c5) * c5,c6) 200";
      "optimal cp-free: ((c0,c1 * c1,c2) * ((c2,c3 * c3,c4) * (c4,c5 * c5,c6))) 160";
      "optimal linear-cp-free: (((((c0,c1 * c1,c2) * c2,c3) * c3,c4) * c4,c5) * c5,c6) 200";
      "makespan all: ((c0,c1 * (c1,c2 * c2,c3)) * (c3,c4 * (c4,c5 * c5,c6))) 110";
      "makespan linear: (((((c0,c1 * c1,c2) * c2,c3) * c3,c4) * c4,c5) * c5,c6) 200";
      "makespan cp-free: ((c0,c1 * (c1,c2 * c2,c3)) * (c3,c4 * (c4,c5 * c5,c6))) 110";
      "makespan linear-cp-free: (((((c0,c1 * c1,c2) * c2,c3) * c3,c4) * c4,c5) * c5,c6) 200";
    ] );
    ( "chain6", "scrambled",
    [
      "dpsize: ((c4,c5 * c5,c6) * (c0,c1 * (c3,c4 * (c1,c2 * c2,c3)))) 1481";
      "dpsize+cp: ((c0,c1 * c4,c5) * (c5,c6 * (c2,c3 * (c1,c2 * c3,c4)))) 1166";
      "dpsub: ((c0,c1 * ((c1,c2 * c2,c3) * c3,c4)) * (c4,c5 * c5,c6)) 1481";
      "dpsub+cp: ((c0,c1 * c5,c6) * (((c1,c2 * c3,c4) * c2,c3) * c4,c5)) 1166";
      "dpccp: ((c0,c1 * ((c1,c2 * c2,c3) * c3,c4)) * (c4,c5 * c5,c6)) 1481";
      "selinger never: (((((c1,c2 * c2,c3) * c3,c4) * c4,c5) * c5,c6) * c0,c1) 1759";
      "selinger when-needed: (((((c1,c2 * c4,c5) * c5,c6) * c0,c1) * c2,c3) * c3,c4) 1367";
      "selinger always: (((((c1,c2 * c4,c5) * c5,c6) * c0,c1) * c2,c3) * c3,c4) 1367";
      "optimal all: ((c0,c1 * c4,c5) * (((c1,c2 * c3,c4) * c2,c3) * c5,c6)) 1166";
      "optimal linear: (((((c1,c2 * c4,c5) * c5,c6) * c0,c1) * c2,c3) * c3,c4) 1367";
      "optimal cp-free: ((c0,c1 * ((c1,c2 * c2,c3) * c3,c4)) * (c4,c5 * c5,c6)) 1481";
      "optimal linear-cp-free: (((((c1,c2 * c2,c3) * c3,c4) * c4,c5) * c5,c6) * c0,c1) 1759";
      "makespan all: ((c0,c1 * c4,c5) * (((c1,c2 * c3,c4) * c2,c3) * c5,c6)) 858";
      "makespan linear: (((((c1,c2 * c4,c5) * c5,c6) * c0,c1) * c2,c3) * c3,c4) 1367";
      "makespan cp-free: ((c0,c1 * (c1,c2 * c2,c3)) * (c3,c4 * (c4,c5 * c5,c6))) 1389";
      "makespan linear-cp-free: (((((c1,c2 * c2,c3) * c3,c4) * c4,c5) * c5,c6) * c0,c1) 1759";
    ] );
    ( "star5", "tie-heavy",
    [
      "dpsize: (s4,t4 * (s3,t3 * (s2,t2 * (s1,s2,s3,s4 * s1,t1)))) 140";
      "dpsize+cp: ((s1,s2,s3,s4 * s1,t1) * (s4,t4 * (s2,t2 * s3,t3))) 120";
      "dpsub: ((((s1,s2,s3,s4 * s4,t4) * s3,t3) * s2,t2) * s1,t1) 140";
      "dpsub+cp: (((s1,s2,s3,s4 * s4,t4) * s3,t3) * (s1,t1 * s2,t2)) 120";
      "dpccp: ((((s1,s2,s3,s4 * s4,t4) * s3,t3) * s2,t2) * s1,t1) 140";
      "selinger never: ((((s1,s2,s3,s4 * s1,t1) * s2,t2) * s3,t3) * s4,t4) 140";
      "selinger when-needed: ((((s1,s2,s3,s4 * s1,t1) * s2,t2) * s3,t3) * s4,t4) 140";
      "selinger always: ((((s1,s2,s3,s4 * s1,t1) * s2,t2) * s3,t3) * s4,t4) 140";
      "optimal all: ((s1,s2,s3,s4 * s1,t1) * (s2,t2 * (s3,t3 * s4,t4))) 120";
      "optimal linear: ((((s1,s2,s3,s4 * s1,t1) * s2,t2) * s3,t3) * s4,t4) 140";
      "optimal cp-free: ((((s1,s2,s3,s4 * s1,t1) * s2,t2) * s3,t3) * s4,t4) 140";
      "optimal linear-cp-free: ((((s1,s2,s3,s4 * s1,t1) * s2,t2) * s3,t3) * s4,t4) 140";
      "makespan all: ((s1,s2,s3,s4 * s1,t1) * (s2,t2 * (s3,t3 * s4,t4))) 100";
      "makespan linear: ((((s1,s2,s3,s4 * s1,t1) * s2,t2) * s3,t3) * s4,t4) 140";
      "makespan cp-free: ((((s1,s2,s3,s4 * s1,t1) * s2,t2) * s3,t3) * s4,t4) 140";
      "makespan linear-cp-free: ((((s1,s2,s3,s4 * s1,t1) * s2,t2) * s3,t3) * s4,t4) 140";
    ] );
    ( "star5", "scrambled",
    [
      "dpsize: (s3,t3 * (s4,t4 * (s1,t1 * (s1,s2,s3,s4 * s2,t2)))) 1279";
      "dpsize+cp: ((s3,t3 * s4,t4) * (s1,t1 * (s1,s2,s3,s4 * s2,t2))) 941";
      "dpsub: ((((s1,s2,s3,s4 * s2,t2) * s1,t1) * s4,t4) * s3,t3) 1279";
      "dpsub+cp: (((s1,s2,s3,s4 * s2,t2) * s1,t1) * (s3,t3 * s4,t4)) 941";
      "dpccp: ((((s1,s2,s3,s4 * s2,t2) * s1,t1) * s4,t4) * s3,t3) 1279";
      "selinger never: ((((s1,s2,s3,s4 * s2,t2) * s1,t1) * s4,t4) * s3,t3) 1279";
      "selinger when-needed: ((((s1,s2,s3,s4 * s2,t2) * s1,t1) * s4,t4) * s3,t3) 1279";
      "selinger always: ((((s1,s2,s3,s4 * s2,t2) * s1,t1) * s4,t4) * s3,t3) 1279";
      "optimal all: (((s1,s2,s3,s4 * s2,t2) * s1,t1) * (s3,t3 * s4,t4)) 941";
      "optimal linear: ((((s1,s2,s3,s4 * s2,t2) * s1,t1) * s4,t4) * s3,t3) 1279";
      "optimal cp-free: ((((s1,s2,s3,s4 * s2,t2) * s1,t1) * s4,t4) * s3,t3) 1279";
      "optimal linear-cp-free: ((((s1,s2,s3,s4 * s2,t2) * s1,t1) * s4,t4) * s3,t3) 1279";
      "makespan all: (((s1,s2,s3,s4 * s2,t2) * s1,t1) * (s3,t3 * s4,t4)) 843";
      "makespan linear: ((((s1,s2,s3,s4 * s2,t2) * s1,t1) * s4,t4) * s3,t3) 1279";
      "makespan cp-free: ((((s1,s2,s3,s4 * s2,t2) * s1,t1) * s4,t4) * s3,t3) 1279";
      "makespan linear-cp-free: ((((s1,s2,s3,s4 * s2,t2) * s1,t1) * s4,t4) * s3,t3) 1279";
    ] );
    ( "cycle5", "tie-heavy",
    [
      "dpsize: ((c0,c1 * c0,c4) * (c3,c4 * (c1,c2 * c2,c3))) 120";
      "dpsize+cp: ((c0,c1 * c0,c4) * (c3,c4 * (c1,c2 * c2,c3))) 120";
      "dpsub: (((c0,c1 * c0,c4) * c3,c4) * (c1,c2 * c2,c3)) 120";
      "dpsub+cp: (((c0,c1 * c3,c4) * c2,c3) * (c0,c4 * c1,c2)) 120";
      "dpccp: (((c0,c1 * c1,c2) * c0,c4) * (c2,c3 * c3,c4)) 120";
      "selinger never: ((((c0,c1 * c0,c4) * c1,c2) * c2,c3) * c3,c4) 140";
      "selinger when-needed: ((((c0,c1 * c0,c4) * c1,c2) * c2,c3) * c3,c4) 140";
      "selinger always: ((((c0,c1 * c0,c4) * c1,c2) * c2,c3) * c3,c4) 140";
      "optimal all: ((c0,c1 * c0,c4) * (c1,c2 * (c2,c3 * c3,c4))) 120";
      "optimal linear: ((((c0,c1 * c0,c4) * c1,c2) * c2,c3) * c3,c4) 140";
      "optimal cp-free: ((c0,c1 * c0,c4) * (c1,c2 * (c2,c3 * c3,c4))) 120";
      "optimal linear-cp-free: ((((c0,c1 * c0,c4) * c1,c2) * c2,c3) * c3,c4) 140";
      "makespan all: ((c0,c1 * c0,c4) * (c1,c2 * (c2,c3 * c3,c4))) 100";
      "makespan linear: ((((c0,c1 * c0,c4) * c1,c2) * c2,c3) * c3,c4) 140";
      "makespan cp-free: ((c0,c1 * c0,c4) * (c1,c2 * (c2,c3 * c3,c4))) 100";
      "makespan linear-cp-free: ((((c0,c1 * c0,c4) * c1,c2) * c2,c3) * c3,c4) 140";
    ] );
    ( "cycle5", "scrambled",
    [
      "dpsize: (c0,c1 * (c0,c4 * (c3,c4 * (c1,c2 * c2,c3)))) 807";
      "dpsize+cp: (c2,c3 * (c0,c4 * (c0,c1 * (c1,c2 * c3,c4)))) 564";
      "dpsub: (c0,c1 * (c0,c4 * ((c1,c2 * c2,c3) * c3,c4))) 807";
      "dpsub+cp: (((c0,c1 * (c1,c2 * c3,c4)) * c0,c4) * c2,c3) 564";
      "dpccp: (c0,c1 * (c0,c4 * ((c1,c2 * c2,c3) * c3,c4))) 807";
      "selinger never: ((((c1,c2 * c2,c3) * c3,c4) * c0,c4) * c0,c1) 807";
      "selinger when-needed: ((((c1,c2 * c3,c4) * c0,c1) * c0,c4) * c2,c3) 564";
      "selinger always: ((((c1,c2 * c3,c4) * c0,c1) * c0,c4) * c2,c3) 564";
      "optimal all: (((c0,c1 * (c1,c2 * c3,c4)) * c0,c4) * c2,c3) 564";
      "optimal linear: ((((c1,c2 * c3,c4) * c0,c1) * c0,c4) * c2,c3) 564";
      "optimal cp-free: (c0,c1 * (c0,c4 * ((c1,c2 * c2,c3) * c3,c4))) 807";
      "optimal linear-cp-free: ((((c1,c2 * c2,c3) * c3,c4) * c0,c4) * c0,c1) 807";
      "makespan all: (((c0,c1 * (c1,c2 * c3,c4)) * c0,c4) * c2,c3) 564";
      "makespan linear: ((((c1,c2 * c3,c4) * c0,c1) * c0,c4) * c2,c3) 564";
      "makespan cp-free: ((c0,c1 * (c1,c2 * c2,c3)) * (c0,c4 * c3,c4)) 609";
      "makespan linear-cp-free: ((((c1,c2 * c2,c3) * c3,c4) * c0,c4) * c0,c1) 807";
    ] );
    ( "clique4", "tie-heavy",
    [
      "dpsize: ((e0_1,e0_2,e0_3,v0 * e0_1,e1_2,e1_3,v1) * (e0_2,e1_2,e2_3,v2 * e0_3,e1_3,e2_3,v3)) 80";
      "dpsize+cp: ((e0_1,e0_2,e0_3,v0 * e0_1,e1_2,e1_3,v1) * (e0_2,e1_2,e2_3,v2 * e0_3,e1_3,e2_3,v3)) 80";
      "dpsub: ((e0_1,e0_2,e0_3,v0 * e0_3,e1_3,e2_3,v3) * (e0_1,e1_2,e1_3,v1 * e0_2,e1_2,e2_3,v2)) 80";
      "dpsub+cp: ((e0_1,e0_2,e0_3,v0 * e0_3,e1_3,e2_3,v3) * (e0_1,e1_2,e1_3,v1 * e0_2,e1_2,e2_3,v2)) 80";
      "dpccp: ((e0_1,e0_2,e0_3,v0 * e0_3,e1_3,e2_3,v3) * (e0_1,e1_2,e1_3,v1 * e0_2,e1_2,e2_3,v2)) 80";
      "selinger never: (((e0_1,e0_2,e0_3,v0 * e0_1,e1_2,e1_3,v1) * e0_2,e1_2,e2_3,v2) * e0_3,e1_3,e2_3,v3) 90";
      "selinger when-needed: (((e0_1,e0_2,e0_3,v0 * e0_1,e1_2,e1_3,v1) * e0_2,e1_2,e2_3,v2) * e0_3,e1_3,e2_3,v3) 90";
      "selinger always: (((e0_1,e0_2,e0_3,v0 * e0_1,e1_2,e1_3,v1) * e0_2,e1_2,e2_3,v2) * e0_3,e1_3,e2_3,v3) 90";
      "optimal all: ((e0_1,e0_2,e0_3,v0 * e0_1,e1_2,e1_3,v1) * (e0_2,e1_2,e2_3,v2 * e0_3,e1_3,e2_3,v3)) 80";
      "optimal linear: (((e0_1,e0_2,e0_3,v0 * e0_1,e1_2,e1_3,v1) * e0_2,e1_2,e2_3,v2) * e0_3,e1_3,e2_3,v3) 90";
      "optimal cp-free: ((e0_1,e0_2,e0_3,v0 * e0_1,e1_2,e1_3,v1) * (e0_2,e1_2,e2_3,v2 * e0_3,e1_3,e2_3,v3)) 80";
      "optimal linear-cp-free: (((e0_1,e0_2,e0_3,v0 * e0_1,e1_2,e1_3,v1) * e0_2,e1_2,e2_3,v2) * e0_3,e1_3,e2_3,v3) 90";
      "makespan all: ((e0_1,e0_2,e0_3,v0 * e0_1,e1_2,e1_3,v1) * (e0_2,e1_2,e2_3,v2 * e0_3,e1_3,e2_3,v3)) 60";
      "makespan linear: (((e0_1,e0_2,e0_3,v0 * e0_1,e1_2,e1_3,v1) * e0_2,e1_2,e2_3,v2) * e0_3,e1_3,e2_3,v3) 90";
      "makespan cp-free: ((e0_1,e0_2,e0_3,v0 * e0_1,e1_2,e1_3,v1) * (e0_2,e1_2,e2_3,v2 * e0_3,e1_3,e2_3,v3)) 60";
      "makespan linear-cp-free: (((e0_1,e0_2,e0_3,v0 * e0_1,e1_2,e1_3,v1) * e0_2,e1_2,e2_3,v2) * e0_3,e1_3,e2_3,v3) 90";
    ] );
    ( "clique4", "scrambled",
    [
      "dpsize: (e0_1,e1_2,e1_3,v1 * (e0_3,e1_3,e2_3,v3 * (e0_1,e0_2,e0_3,v0 * e0_2,e1_2,e2_3,v2))) 405";
      "dpsize+cp: (e0_1,e1_2,e1_3,v1 * (e0_3,e1_3,e2_3,v3 * (e0_1,e0_2,e0_3,v0 * e0_2,e1_2,e2_3,v2))) 405";
      "dpsub: (((e0_1,e0_2,e0_3,v0 * e0_2,e1_2,e2_3,v2) * e0_3,e1_3,e2_3,v3) * e0_1,e1_2,e1_3,v1) 405";
      "dpsub+cp: (((e0_1,e0_2,e0_3,v0 * e0_2,e1_2,e2_3,v2) * e0_3,e1_3,e2_3,v3) * e0_1,e1_2,e1_3,v1) 405";
      "dpccp: (((e0_1,e0_2,e0_3,v0 * e0_2,e1_2,e2_3,v2) * e0_3,e1_3,e2_3,v3) * e0_1,e1_2,e1_3,v1) 405";
      "selinger never: (((e0_1,e0_2,e0_3,v0 * e0_2,e1_2,e2_3,v2) * e0_3,e1_3,e2_3,v3) * e0_1,e1_2,e1_3,v1) 405";
      "selinger when-needed: (((e0_1,e0_2,e0_3,v0 * e0_2,e1_2,e2_3,v2) * e0_3,e1_3,e2_3,v3) * e0_1,e1_2,e1_3,v1) 405";
      "selinger always: (((e0_1,e0_2,e0_3,v0 * e0_2,e1_2,e2_3,v2) * e0_3,e1_3,e2_3,v3) * e0_1,e1_2,e1_3,v1) 405";
      "optimal all: (((e0_1,e0_2,e0_3,v0 * e0_2,e1_2,e2_3,v2) * e0_3,e1_3,e2_3,v3) * e0_1,e1_2,e1_3,v1) 405";
      "optimal linear: (((e0_1,e0_2,e0_3,v0 * e0_2,e1_2,e2_3,v2) * e0_3,e1_3,e2_3,v3) * e0_1,e1_2,e1_3,v1) 405";
      "optimal cp-free: (((e0_1,e0_2,e0_3,v0 * e0_2,e1_2,e2_3,v2) * e0_3,e1_3,e2_3,v3) * e0_1,e1_2,e1_3,v1) 405";
      "optimal linear-cp-free: (((e0_1,e0_2,e0_3,v0 * e0_2,e1_2,e2_3,v2) * e0_3,e1_3,e2_3,v3) * e0_1,e1_2,e1_3,v1) 405";
      "makespan all: (((e0_1,e0_2,e0_3,v0 * e0_2,e1_2,e2_3,v2) * e0_3,e1_3,e2_3,v3) * e0_1,e1_2,e1_3,v1) 405";
      "makespan linear: (((e0_1,e0_2,e0_3,v0 * e0_2,e1_2,e2_3,v2) * e0_3,e1_3,e2_3,v3) * e0_1,e1_2,e1_3,v1) 405";
      "makespan cp-free: (((e0_1,e0_2,e0_3,v0 * e0_2,e1_2,e2_3,v2) * e0_3,e1_3,e2_3,v3) * e0_1,e1_2,e1_3,v1) 405";
      "makespan linear-cp-free: (((e0_1,e0_2,e0_3,v0 * e0_2,e1_2,e2_3,v2) * e0_3,e1_3,e2_3,v3) * e0_1,e1_2,e1_3,v1) 405";
    ] );
    ( "three-components", "tie-heavy",
    [
      "dpsize: none";
      "dpsize+cp: ((AB * BC) * (GH * (CD * EF))) 120";
      "dpsub: none";
      "dpsub+cp: (((AB * GH) * EF) * (BC * CD)) 120";
      "dpccp: none";
      "selinger never: none";
      "selinger when-needed: ((((AB * EF) * GH) * BC) * CD) 140";
      "selinger always: ((((AB * BC) * CD) * EF) * GH) 140";
      "optimal all: ((AB * BC) * (CD * (EF * GH))) 120";
      "optimal linear: ((((AB * BC) * CD) * EF) * GH) 140";
      "optimal cp-free: ((AB * (BC * CD)) * (EF * GH)) 120";
      "optimal linear-cp-free: ((((AB * BC) * CD) * EF) * GH) 140";
    ] );
    ( "three-components", "scrambled",
    [
      "dpsize: none";
      "dpsize+cp: (EF * ((BC * CD) * (AB * GH))) 1084";
      "dpsub: none";
      "dpsub+cp: (((AB * GH) * (BC * CD)) * EF) 1084";
      "dpccp: none";
      "selinger never: none";
      "selinger when-needed: ((((AB * GH) * CD) * EF) * BC) 1722";
      "selinger always: ((((BC * CD) * AB) * EF) * GH) 1098";
      "optimal all: (((AB * GH) * (BC * CD)) * EF) 1084";
      "optimal linear: ((((BC * CD) * AB) * EF) * GH) 1098";
      "optimal cp-free: (((AB * (BC * CD)) * EF) * GH) 1098";
      "optimal linear-cp-free: ((((BC * CD) * AB) * EF) * GH) 1098";
    ] );
  ]

let setops_goldens =
  [
    ( "same5",
    [
      "inter: ((((A . E) . D) . C) . B) 12";
      "union: ((((A . E) . D) . C) . B) 12";
    ] );
    ( "shifted5",
    [
      "inter: ((((A . E) . D) . C) . B) 0";
      "union: (((A . B) . C) . (D . E)) 20";
    ] );
  ]

let counter_goldens =
  [
    ( "chain10",
    [
      "dpsize 495 45 120 45";
      "dpsub 28501 45 120 45";
      "dpccp 165 45 120 45";
      "selinger 3584 45 45 45";
    ] );
    ( "star10",
    [
      "dpsize 2340 511 1793 511";
      "dpsub 28501 511 1793 511";
      "dpccp 2304 511 1793 511";
      "selinger 2815 511 1802 511";
    ] );
    ( "clique8",
    [
      "dpsize 3025 247 2778 247";
      "dpsub 3025 247 2778 247";
      "dpccp 3025 247 2778 247";
      "selinger 1016 247 769 247";
    ] );
  ]

let test_dp_goldens () =
  List.iter
    (fun (sname, oname, expected) ->
      let _, d, makespan =
        List.find (fun (n, _, _) -> n = sname) golden_schemes
      in
      let oracle = List.assoc oname golden_oracles in
      Alcotest.(check (list string))
        (sname ^ " / " ^ oname) expected
        (dp_variants ~makespan oracle d))
    dp_goldens

let test_setops_goldens () =
  List.iter
    (fun (fname, expected) ->
      Alcotest.(check (list string))
        fname expected
        (setops_variants (List.assoc fname setops_families)))
    setops_goldens

let test_counter_goldens () =
  List.iter
    (fun (qname, expected) ->
      Alcotest.(check (list string))
        qname expected
        (counter_table (List.assoc qname counter_queries)))
    counter_goldens

(* ------------------------------------------------------------------ *)
(* Makespan DP                                                          *)
(* ------------------------------------------------------------------ *)

let test_makespan_three_components () =
  (* Three unlinked relations: every strategy is CP-free (3 of them),
     and so is every linear one; the makespan DP must find one. *)
  let d = Hypergraph.of_strings [ "AB"; "CD"; "EF" ] in
  List.iter
    (fun subspace ->
      let name = Format.asprintf "%a" Enumerate.pp_subspace subspace in
      Alcotest.(check int)
        (name ^ " enumeration") 3
        (List.length (Enumerate.enumerate subspace d));
      Alcotest.(check bool)
        (name ^ " plan found") true
        (Option.is_some
           (Mj_engine.Parallel.optimum_makespan ~subspace ~oracle:tie_heavy d)))
    Enumerate.[ Cp_free; Linear_cp_free ]

(* Up to five two-attribute relations over seven attributes: connected
   and unconnected schemes alike, with a seeded scrambled oracle. *)
let gen_scheme_and_oracle =
  let open QCheck2.Gen in
  let attr = map (fun i -> Char.chr (Char.code 'A' + i)) (int_range 0 6) in
  let scheme =
    map2
      (fun a b -> if a = b then String.make 1 a else Printf.sprintf "%c%c" a b)
      attr attr
  in
  let* schemes = list_size (int_range 1 5) scheme in
  let* seed = int_range 0 1000 in
  return
    ( Hypergraph.of_strings (List.sort_uniq String.compare schemes),
      fun s -> scrambled s * (1 + (seed mod 7)) mod 101 )

let prop_makespan_matches_enumeration =
  qtest "makespan DP = min makespan over the enumeration, every subspace"
    ~count:200 gen_scheme_and_oracle (fun (d, oracle) ->
      List.for_all
        (fun (_, subspace) ->
          let enumerated =
            List.map
              (Mj_engine.Parallel.makespan_oracle oracle)
              (Enumerate.enumerate subspace d)
          in
          match
            Mj_engine.Parallel.optimum_makespan ~subspace ~oracle d, enumerated
          with
          | None, [] -> true
          | Some r, _ :: _ -> r.cost = List.fold_left min max_int enumerated
          | _ -> false)
        subspaces)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "mj_optimizer"
    [
      ( "catalog",
        [
          Alcotest.test_case "of_database" `Quick test_catalog_of_database;
          Alcotest.test_case "synthetic validation" `Quick
            test_catalog_synthetic_validation;
        ] );
      ( "estimate",
        [
          Alcotest.test_case "product" `Quick test_estimate_product;
          Alcotest.test_case "key join" `Quick test_estimate_key_join;
          Alcotest.test_case "example 1 uniformity gap" `Quick
            test_estimate_example1;
          Alcotest.test_case "singleton" `Quick test_estimate_singleton;
          Alcotest.test_case "graph model" `Quick test_graph_model;
          Alcotest.test_case "edge selectivities" `Quick
            test_edge_selectivities;
        ] );
      ( "dp-cross-validation",
        [
          prop_dp_variants_agree_cp_free;
          prop_dp_variants_agree_full;
          prop_selinger_matches_core;
          prop_plans_are_valid;
          prop_heuristics_dominated_by_dp;
          prop_selinger_policy_ordering;
        ] );
      ( "ikkbz",
        [
          prop_ikkbz_optimal_on_trees;
          prop_ikkbz_order_connected_prefixes;
          Alcotest.test_case "rejects cycles" `Quick test_ikkbz_rejects_cycles;
          Alcotest.test_case "chain example" `Quick test_ikkbz_chain_example;
        ] );
      ( "search-space",
        [
          Alcotest.test_case "chain closed form" `Quick test_ccp_chain;
          Alcotest.test_case "cycle closed form" `Quick test_ccp_cycle;
          Alcotest.test_case "star closed form" `Quick test_ccp_star;
          Alcotest.test_case "clique closed form" `Quick test_ccp_clique;
          prop_ccp_pairs_unique_and_valid;
          Alcotest.test_case "dpsize/dpsub inspect more" `Quick
            test_dpsize_inspects_more_than_ccp;
          Alcotest.test_case "table" `Quick test_search_space_table;
        ] );
      ( "tie-break-goldens",
        [
          Alcotest.test_case "every DP variant's winning plan" `Quick
            test_dp_goldens;
          Alcotest.test_case "setops winning tree" `Quick test_setops_goldens;
          Alcotest.test_case "search-effort counter table" `Quick
            test_counter_goldens;
        ] );
      ( "subset-dp",
        [
          Alcotest.test_case "makespan on three components" `Quick
            test_makespan_three_components;
          prop_makespan_matches_enumeration;
        ] );
    ]

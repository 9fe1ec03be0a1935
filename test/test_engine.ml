(* Tests for the physical execution engine: every algorithm computes the
   same relation as the algebra, the materializing engine's generated
   tuple count equals the paper's tau, and pipelined execution of linear
   strategies reproduces the step costs while bounding memory by the base
   relations. *)

open Mj_relation
open Mj_hypergraph
open Multijoin
open Mj_engine
module Scenarios = Mj_workload.Scenarios
module Dbgen = Mj_workload.Dbgen

let qtest name ?(count = 100) gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~name ~count gen prop)

let algorithms =
  [
    ("nested-loop", Physical.Nested_loop);
    ("block-nested-loop", Physical.Block_nested_loop 3);
    ("hash", Physical.Hash_join);
    ("sort-merge", Physical.Sort_merge);
    ("index-nested-loop", Physical.Index_nested_loop);
  ]

let gen_db_and_strategy =
  let open QCheck2.Gen in
  let* n = int_range 2 5 in
  let* seed = int_range 0 100_000 in
  let rng = Random.State.make [| seed; n; 91 |] in
  let d = Querygraph.random ~extra_edge_prob:0.3 ~rng n in
  let db = Dbgen.uniform_db ~rng ~rows:5 ~domain:3 d in
  let s = Enumerate.random_strategy ~rng d in
  return (db, s)

(* ------------------------------------------------------------------ *)
(* Physical plans                                                       *)
(* ------------------------------------------------------------------ *)

let test_of_strategy_roundtrip () =
  let s = Strategy.of_string "((AB * BC) * CD)" in
  let p = Physical.of_strategy s in
  Alcotest.(check bool) "strategy recovered" true
    (Strategy.equal (Physical.strategy_of p) s)

let test_algo_chooser () =
  let s = Strategy.of_string "(AB * BC) * CD" in
  let p =
    Physical.of_strategy
      ~algo:(fun d1 _ ->
        if Scheme.Set.cardinal d1 = 1 then Physical.Nested_loop
        else Physical.Sort_merge)
      s
  in
  Alcotest.(check string) "annotations placed"
    "((AB nl BC) merge CD)" (Physical.to_string p)

let test_plan_pp () =
  let p =
    Physical.Join
      (Physical.Hash_join,
       Physical.Scan (Scheme.of_string "AB"),
       Physical.Scan (Scheme.of_string "BC"))
  in
  Alcotest.(check string) "printed" "(AB hash BC)" (Physical.to_string p)

(* ------------------------------------------------------------------ *)
(* Materializing execution                                              *)
(* ------------------------------------------------------------------ *)

let ex1 = Scenarios.example1

let test_all_algorithms_agree () =
  let s = List.assoc "S4" Scenarios.example1_strategies in
  let expected = Database.join_all ex1 in
  List.iter
    (fun (name, algo) ->
      let plan = Physical.of_strategy ~algo:(fun _ _ -> algo) s in
      let result, _ = Exec.execute ex1 plan in
      Alcotest.(check bool) (name ^ " computes the join") true
        (Relation.equal result expected))
    algorithms

let test_generated_equals_tau_example1 () =
  List.iter
    (fun (sname, s) ->
      List.iter
        (fun (aname, algo) ->
          let plan = Physical.of_strategy ~algo:(fun _ _ -> algo) s in
          let _, stats = Exec.execute ex1 plan in
          Alcotest.(check int)
            (Printf.sprintf "%s under %s generates tau tuples" sname aname)
            (Cost.tau ex1 s) stats.Exec.tuples_generated)
        algorithms)
    Scenarios.example1_strategies

let test_per_step_matches_step_costs () =
  let s = List.assoc "S3" Scenarios.example1_strategies in
  let plan = Physical.of_strategy s in
  let _, stats = Exec.execute ex1 plan in
  Alcotest.(check (list int)) "10, 49, 490"
    (List.map snd (Cost.step_costs ex1 s))
    (List.map snd stats.Exec.per_step)

let test_scanned_counts_base_tuples () =
  let s = Strategy.of_string "AB * BC" in
  let plan = Physical.of_strategy s in
  let _, stats = Exec.execute ex1 plan in
  Alcotest.(check int) "4 + 4 scanned" 8 stats.Exec.tuples_scanned

let test_nested_loop_comparisons () =
  let s = Strategy.of_string "AB * BC" in
  let plan = Physical.of_strategy ~algo:(fun _ _ -> Physical.Nested_loop) s in
  let _, stats = Exec.execute ex1 plan in
  Alcotest.(check int) "4 x 4 comparisons" 16 stats.Exec.comparisons

let test_hash_probes () =
  let s = Strategy.of_string "AB * BC" in
  let plan = Physical.of_strategy ~algo:(fun _ _ -> Physical.Hash_join) s in
  let _, stats = Exec.execute ex1 plan in
  Alcotest.(check int) "one probe per left tuple" 4 stats.Exec.hash_probes

let test_sort_merge_comparisons () =
  (* AB ⋈ BC on example 1: both sides sort to keys [0;0;0;1], so the
     merge does one key test per group boundary (2) and one test per
     tuple pair of each matched group (3*3 + 1*1) — the same pair
     counting as the loop joins. *)
  let s = Strategy.of_string "AB * BC" in
  let plan = Physical.of_strategy ~algo:(fun _ _ -> Physical.Sort_merge) s in
  let _, stats = Exec.execute ex1 plan in
  Alcotest.(check int) "2 key tests + 10 pair tests" 12 stats.Exec.comparisons

let test_bnl_large_input () =
  (* Regression: [take] used to recurse once per taken element, so a
     block covering a few hundred thousand tuples overflowed the stack. *)
  let rows = List.init 300_000 (fun k -> [ Value.int k; Value.int 0 ]) in
  let db =
    Database.of_rows
      [ ("AB", rows); ("BC", [ [ Value.int 0; Value.int 7 ] ]) ]
  in
  let s = Strategy.of_string "AB * BC" in
  let plan =
    Physical.of_strategy ~algo:(fun _ _ -> Physical.Block_nested_loop 500_000) s
  in
  let result, stats = Exec.execute db plan in
  Alcotest.(check int) "every row joins" 300_000 (Relation.cardinality result);
  Alcotest.(check int) "one comparison per pair" 300_000 stats.Exec.comparisons

let test_block_size_validated () =
  let s = Strategy.of_string "AB * BC" in
  let plan =
    Physical.of_strategy ~algo:(fun _ _ -> Physical.Block_nested_loop 0) s
  in
  match Exec.execute ex1 plan with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "block size 0 must be rejected"

let test_missing_scheme () =
  let plan = Physical.Scan (Scheme.of_string "XY") in
  match Exec.execute ex1 plan with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "missing scheme must be rejected"

let prop_engine_matches_algebra =
  qtest "every algorithm = algebra join, generated = tau" ~count:60
    gen_db_and_strategy (fun (db, s) ->
      let expected = Database.join_all db in
      let tau = Cost.tau db s in
      List.for_all
        (fun (_, algo) ->
          let plan = Physical.of_strategy ~algo:(fun _ _ -> algo) s in
          let result, stats = Exec.execute db plan in
          Relation.equal result expected && stats.Exec.tuples_generated = tau)
        algorithms)

let prop_mixed_algorithms =
  qtest "mixed per-step algorithms still agree" ~count:60 gen_db_and_strategy
    (fun (db, s) ->
      let pick d1 _ =
        match Scheme.Set.cardinal d1 mod 3 with
        | 0 -> Physical.Nested_loop
        | 1 -> Physical.Hash_join
        | _ -> Physical.Sort_merge
      in
      let result, stats = Exec.execute db (Physical.of_strategy ~algo:pick s) in
      Relation.equal result (Database.join_all db)
      && stats.Exec.tuples_generated = Cost.tau db s)

(* Each join compiles its merge once, so all rows of one seed join
   share one header — even over example 1's [of_rows] states, whose
   tuples each carry their own — under every kernel. *)
let test_join_rows_share_a_header () =
  let s = Strategy.of_string "((AB * BC) * DE) * FG" in
  let one_header name r =
    match Relation.tuples r with
    | [] -> Alcotest.fail (name ^ ": empty result")
    | t :: rest ->
        let h = Tuple.header_of t in
        Alcotest.(check bool) name true
          (List.for_all (fun t' -> Tuple.header_of t' == h) rest)
  in
  List.iter
    (fun (name, algo) ->
      let plan = Physical.of_strategy ~algo:(fun _ _ -> algo) s in
      one_header name (fst (Exec.execute ex1 plan)))
    algorithms;
  one_header "pipelined" (fst (Exec.execute_pipelined ex1 s))

(* ------------------------------------------------------------------ *)
(* Index reuse                                                          *)
(* ------------------------------------------------------------------ *)

let inl_plan s =
  Physical.of_strategy ~algo:(fun _ _ -> Physical.Index_nested_loop) s

let test_index_builds_once_per_relation () =
  let s = Strategy.of_string "((AB * BC) * DE) * FG" in
  let _, stats = Exec.execute ex1 (inl_plan s) in
  (* Every inner side of this left-deep plan is a base scan: three
     indexes built, none reused within one run. *)
  Alcotest.(check int) "three builds" 3 stats.Exec.index_builds;
  Alcotest.(check int) "no hits yet" 0 stats.Exec.index_hits

let test_index_cache_reused_across_runs () =
  let s = Strategy.of_string "((AB * BC) * DE) * FG" in
  let cache = Exec.index_cache () in
  let r1, first = Exec.execute ~cache ex1 (inl_plan s) in
  let r2, second = Exec.execute ~cache ex1 (inl_plan s) in
  Alcotest.(check bool) "same result" true (Relation.equal r1 r2);
  Alcotest.(check int) "first run builds" 3 first.Exec.index_builds;
  Alcotest.(check int) "second run builds nothing" 0 second.Exec.index_builds;
  Alcotest.(check int) "second run hits the cache" 3 second.Exec.index_hits;
  (* The cached-index run never re-scans the inner relations. *)
  Alcotest.(check int) "second run scans only the outer" 4
    second.Exec.tuples_scanned

let test_index_fallback_on_bushy () =
  (* A bushy inner child is not a scan: the step degrades to hash join
     and builds no persistent index. *)
  let s = Strategy.of_string "AB * (BC * DE)" in
  let cache = Exec.index_cache () in
  let result, stats = Exec.execute ~cache ex1 (inl_plan s) in
  Alcotest.(check bool) "correct result" true
    (Relation.equal result (Cost.eval ex1 s));
  (* Only BC * DE's inner (DE) is a scan; the root's inner is bushy. *)
  Alcotest.(check int) "one persistent index" 1 stats.Exec.index_builds

(* ------------------------------------------------------------------ *)
(* Pipelined execution                                                  *)
(* ------------------------------------------------------------------ *)

let test_pipeline_matches_join () =
  let s = Strategy.of_string "((AB * BC) * DE) * FG" in
  let result, stats = Exec.execute_pipelined ex1 s in
  Alcotest.(check bool) "result correct" true
    (Relation.equal result (Database.join_all ex1));
  Alcotest.(check int) "490 tuples" 490 stats.Exec.result_size

let test_pipeline_step_costs () =
  let s = List.assoc "S1" Scenarios.example1_strategies in
  let _, stats = Exec.execute_pipelined ex1 s in
  Alcotest.(check (list int)) "10, 70, 490" [ 10; 70; 490 ]
    stats.Exec.emitted_per_stage

let test_pipeline_buffer_bounded_by_bases () =
  (* The pipeline holds hash tables on base relations only: its peak is
     7 (the largest base), far below the 70-tuple intermediate. *)
  let s = List.assoc "S1" Scenarios.example1_strategies in
  let _, stats = Exec.execute_pipelined ex1 s in
  Alcotest.(check int) "peak buffer = largest base" 7 stats.Exec.peak_buffer;
  (* The materializing engine, by contrast, holds the 490-tuple result. *)
  let _, mat = Exec.execute ex1 (Physical.of_strategy s) in
  Alcotest.(check bool) "materializing peak >= 490" true
    (mat.Exec.max_materialized >= 490)

let test_pipeline_rejects_bushy () =
  let s = Strategy.of_string "(AB * BC) * (DE * FG)" in
  match Exec.execute_pipelined ex1 s with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "bushy strategies cannot be pipelined"

let prop_pipeline_equals_materializing =
  qtest "pipelined linear execution = materializing execution" ~count:60
    QCheck2.Gen.(pair (int_range 2 5) (int_range 0 100_000))
    (fun (n, seed) ->
      let rng = Random.State.make [| seed; n; 92 |] in
      let d = Querygraph.random ~extra_edge_prob:0.3 ~rng n in
      let db = Dbgen.uniform_db ~rng ~rows:5 ~domain:3 d in
      (* A random linear strategy: a random permutation as left-deep. *)
      let schemes = Scheme.Set.elements d in
      let shuffled =
        List.map (fun s -> (Random.State.bits rng, s)) schemes
        |> List.sort compare |> List.map snd
      in
      let s = Strategy.left_deep shuffled in
      let piped, pstats = Exec.execute_pipelined db s in
      let mat, mstats = Exec.execute db (Physical.of_strategy s) in
      Relation.equal piped mat
      && pstats.Exec.emitted_per_stage = List.map snd mstats.Exec.per_step)

let prop_pipeline_total_equals_tau =
  qtest "sum of pipeline stage outputs = tau" ~count:60
    QCheck2.Gen.(pair (int_range 2 5) (int_range 0 100_000))
    (fun (n, seed) ->
      let rng = Random.State.make [| seed; n; 93 |] in
      let d = Querygraph.random ~extra_edge_prob:0.3 ~rng n in
      let db = Dbgen.uniform_db ~rng ~rows:4 ~domain:3 d in
      let s = Strategy.left_deep (Scheme.Set.elements d) in
      let _, stats = Exec.execute_pipelined db s in
      List.fold_left ( + ) 0 stats.Exec.emitted_per_stage = Cost.tau db s)

(* A random linear strategy whose leaves attach on either side of the
   spine — Join (leaf, spine) is linear too and must pipeline. *)
let random_linear ~rng d =
  let shuffled =
    Scheme.Set.elements d
    |> List.map (fun s -> (Random.State.bits rng, s))
    |> List.sort compare |> List.map snd
  in
  match shuffled with
  | [] -> assert false
  | first :: rest ->
      List.fold_left
        (fun acc sch ->
          if Random.State.bool rng then Strategy.join acc (Strategy.leaf sch)
          else Strategy.join (Strategy.leaf sch) acc)
        (Strategy.leaf first) rest

let prop_pipeline_matches_ground_truth =
  qtest "pipelined = materializing = algebra; stages = step costs" ~count:60
    QCheck2.Gen.(pair (int_range 2 5) (int_range 0 100_000))
    (fun (n, seed) ->
      let rng = Random.State.make [| seed; n; 95 |] in
      let d = Querygraph.random ~extra_edge_prob:0.3 ~rng n in
      let db = Dbgen.uniform_db ~rng ~rows:5 ~domain:3 d in
      let s = random_linear ~rng d in
      (* The independent ground truth: the algebra's per-step sizes. *)
      let truth = List.map snd (Cost.step_costs db s) in
      let piped, pstats = Exec.execute_pipelined db s in
      let mat, mstats = Exec.execute db (Physical.of_strategy s) in
      Relation.equal piped mat
      && Relation.equal piped (Database.join_all db)
      && pstats.Exec.emitted_per_stage = truth
      && List.map snd mstats.Exec.per_step = truth)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "mj_engine"
    [
      ( "physical",
        [
          Alcotest.test_case "of_strategy roundtrip" `Quick
            test_of_strategy_roundtrip;
          Alcotest.test_case "algorithm chooser" `Quick test_algo_chooser;
          Alcotest.test_case "pp" `Quick test_plan_pp;
        ] );
      ( "materializing",
        [
          Alcotest.test_case "algorithms agree" `Quick test_all_algorithms_agree;
          Alcotest.test_case "generated = tau on example 1" `Quick
            test_generated_equals_tau_example1;
          Alcotest.test_case "per-step = step costs" `Quick
            test_per_step_matches_step_costs;
          Alcotest.test_case "scanned" `Quick test_scanned_counts_base_tuples;
          Alcotest.test_case "nested-loop comparisons" `Quick
            test_nested_loop_comparisons;
          Alcotest.test_case "hash probes" `Quick test_hash_probes;
          Alcotest.test_case "sort-merge comparisons" `Quick
            test_sort_merge_comparisons;
          Alcotest.test_case "block-nested-loop large input" `Quick
            test_bnl_large_input;
          Alcotest.test_case "block size validated" `Quick
            test_block_size_validated;
          Alcotest.test_case "missing scheme" `Quick test_missing_scheme;
          Alcotest.test_case "join rows share a header" `Quick
            test_join_rows_share_a_header;
          prop_engine_matches_algebra;
          prop_mixed_algorithms;
        ] );
      ( "index-reuse",
        [
          Alcotest.test_case "builds once per relation" `Quick
            test_index_builds_once_per_relation;
          Alcotest.test_case "cache reused across runs" `Quick
            test_index_cache_reused_across_runs;
          Alcotest.test_case "fallback on bushy inner" `Quick
            test_index_fallback_on_bushy;
        ] );
      ( "pipelined",
        [
          Alcotest.test_case "matches join" `Quick test_pipeline_matches_join;
          Alcotest.test_case "step costs" `Quick test_pipeline_step_costs;
          Alcotest.test_case "buffer bounded by bases" `Quick
            test_pipeline_buffer_bounded_by_bases;
          Alcotest.test_case "rejects bushy" `Quick test_pipeline_rejects_bushy;
          prop_pipeline_equals_materializing;
          prop_pipeline_total_equals_tau;
          prop_pipeline_matches_ground_truth;
        ] );
    ]

(* Tests for the physical execution engine: the hash-join plan computes
   the same relation as the algebra, the engine's generated tuple count
   equals the paper's tau, and pipelined execution of linear strategies
   reproduces the step costs while bounding memory by the base
   relations. *)

open Mj_relation
open Mj_hypergraph
open Multijoin
open Mj_engine
module Scenarios = Mj_workload.Scenarios
module Dbgen = Mj_workload.Dbgen

let qtest name ?(count = 100) gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~name ~count gen prop)

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

let test_plan_pp () =
  let p =
    Physical.Join
      (Physical.Scan (Scheme.of_string "AB"), Physical.Scan (Scheme.of_string "BC"))
  in
  Alcotest.(check string) "printed" "(AB hash BC)" (Physical.to_string p)

(* ------------------------------------------------------------------ *)
(* Materializing execution                                              *)
(* ------------------------------------------------------------------ *)

let ex1 = Scenarios.example1

(* The engine on a strategy's binary hash plan. *)
let execute ?obs db s = Frame_engine.execute_plan ?obs db (Physical.of_strategy s)

let test_generated_equals_tau_example1 () =
  List.iter
    (fun (sname, s) ->
      let _, stats = execute ex1 s in
      Alcotest.(check int)
        (Printf.sprintf "%s generates tau tuples" sname)
        (Cost.tau ex1 s) stats.Frame_engine.tuples_generated)
    Scenarios.example1_strategies

let test_per_step_matches_step_costs () =
  let s = List.assoc "S3" Scenarios.example1_strategies in
  let _, stats = execute ex1 s in
  Alcotest.(check (list int)) "10, 49, 490"
    (List.map snd (Cost.step_costs ex1 s))
    (List.map snd stats.Frame_engine.per_step)

(* The "scan" spans' rows are the base tuples the plan reads. *)
let test_scanned_counts_base_tuples () =
  let obs = Mj_obs.Obs.make () in
  ignore (execute ~obs ex1 (Strategy.of_string "AB * BC"));
  let rec scanned acc (sp : Mj_obs.Obs.span_tree) =
    let acc =
      match (sp.name, List.assoc_opt "rows" sp.attrs) with
      | "scan", Some (Mj_obs.Json.Num n) -> acc + int_of_float n
      | _ -> acc
    in
    List.fold_left scanned acc sp.children
  in
  Alcotest.(check int) "4 + 4 scanned" 8
    (List.fold_left scanned 0 (Mj_obs.Obs.trace obs))

let test_hash_probes () =
  let _, stats = execute ex1 (Strategy.of_string "AB * BC") in
  Alcotest.(check int) "one probe per left tuple" 4 stats.Frame_engine.probes

let test_missing_scheme () =
  let plan = Physical.Scan (Scheme.of_string "XY") in
  match Frame_engine.execute_plan ex1 plan with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "missing scheme must be rejected"

let prop_engine_matches_algebra =
  qtest "every algorithm = algebra join, generated = tau" ~count:60
    gen_db_and_strategy (fun (db, s) ->
      let result, stats = execute db s in
      Relation.equal result (Database.join_all db)
      && stats.Frame_engine.tuples_generated = Cost.tau db s)

(* Each join of the algebra compiles its merge once, so all rows of one
   seed join share one header — even over example 1's [of_rows] states,
   whose tuples each carry their own — materialized or pipelined. *)
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
  one_header "hash" (Cost.eval ex1 s);
  one_header "pipelined" (fst (Exec.execute_pipelined ex1 s))

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
  let _, mat = execute ex1 s in
  Alcotest.(check bool) "materializing peak >= 490" true
    (List.exists (fun (_, n) -> n >= 490) mat.Frame_engine.per_step)

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
      let mat, mstats = execute db s in
      Relation.equal piped mat
      && pstats.Exec.emitted_per_stage
         = List.map snd mstats.Frame_engine.per_step)

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
      let mat, mstats = execute db s in
      Relation.equal piped mat
      && Relation.equal piped (Database.join_all db)
      && pstats.Exec.emitted_per_stage = truth
      && List.map snd mstats.Frame_engine.per_step = truth)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "mj_engine"
    [
      ( "physical",
        [
          Alcotest.test_case "of_strategy roundtrip" `Quick
            test_of_strategy_roundtrip;
          Alcotest.test_case "pp" `Quick test_plan_pp;
        ] );
      ( "materializing",
        [
          Alcotest.test_case "generated = tau on example 1" `Quick
            test_generated_equals_tau_example1;
          Alcotest.test_case "per-step = step costs" `Quick
            test_per_step_matches_step_costs;
          Alcotest.test_case "scanned" `Quick test_scanned_counts_base_tuples;
          Alcotest.test_case "hash probes" `Quick test_hash_probes;
          Alcotest.test_case "missing scheme" `Quick test_missing_scheme;
          Alcotest.test_case "join rows share a header" `Quick
            test_join_rows_share_a_header;
          prop_engine_matches_algebra;
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

(* Equivalence suite for the planner and the unified engine core.

   The contract under test is the one the Engine docs state: the data
   plane is an execution detail — for any strategy, the binary lowering
   on both planes produces the identical result relation, generates
   exactly Cost.tau tuples, and reproduces Cost.step_costs step by
   step. *)

open Mj_relation
open Mj_hypergraph
open Multijoin
module Dbgen = Mj_workload.Dbgen
module Engine = Mj_engine.Engine
module Planner = Mj_engine.Planner
module Physical = Mj_engine.Physical

let qtest name ?(count = 100) gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~name ~count gen prop)

(* ------------------------------------------------------------------ *)
(* Generators                                                           *)
(* ------------------------------------------------------------------ *)

let shape kind n =
  match kind with
  | 0 -> Querygraph.chain n
  | 1 -> Querygraph.star n
  | 2 -> Querygraph.cycle (max 3 n)
  | _ -> Querygraph.random ~extra_edge_prob:0.3 ~rng:(Random.State.make [| n |]) n

(* A random database (chain / star / cycle / random graph, three data
   regimes) together with a random strategy over its schemes. *)
let gen_case =
  let open QCheck2.Gen in
  let* kind = int_range 0 3 in
  let* n = int_range 2 5 in
  let* regime = int_range 0 2 in
  let* seed = int_range 0 100_000 in
  let rng = Random.State.make [| seed; n; kind; regime; 2026 |] in
  let d = shape kind n in
  let db =
    match regime with
    | 0 -> Dbgen.uniform_db ~rng ~rows:5 ~domain:3 d
    | 1 -> Dbgen.skewed_db ~rng ~rows:5 ~domain:4 ~skew:1.5 d
    | _ -> Dbgen.superkey_db ~rng ~rows:5 ~domain:9 d
  in
  let s = Enumerate.random_strategy ~rng d in
  return (db, s)

let planes = [ Engine.Seed; Engine.Frame ]

(* ------------------------------------------------------------------ *)
(* The equivalence property                                             *)
(* ------------------------------------------------------------------ *)

(* The binary lowering on every plane: same result, τ tuples
   generated, per-step cardinalities identical to Cost.step_costs,
   strategy recoverable from the lowered plan. *)
let equivalence (db, s) =
  let expected = Cost.eval db s in
  let tau = Cost.tau db s in
  let steps = List.map snd (Cost.step_costs db s) in
  List.for_all
    (fun plane ->
      let cfg =
        Engine.Config.make ~plane ~domains:2 ~policy:Planner.Hash_all ()
      in
      let plan = Engine.lower cfg db s in
      let r, stats = Engine.execute_plan cfg db plan in
      Strategy.equal (Physical.strategy_of plan) s
      && Relation.equal r expected
      && stats.Engine.plane = plane
      && stats.Engine.tuples_generated = tau
      && stats.Engine.result_rows = Relation.cardinality expected
      && List.map snd stats.Engine.per_step = steps)
    planes

(* ------------------------------------------------------------------ *)
(* Config                                                               *)
(* ------------------------------------------------------------------ *)

let test_config_overrides () =
  let cfg =
    Engine.Config.make ~plane:Engine.Frame ~domains:3
      ~policy:Planner.Wcoj ()
  in
  Alcotest.(check string) "plane override" "frame"
    (Engine.plane_name cfg.Engine.Config.plane);
  Alcotest.(check int) "domains override" 3 cfg.Engine.Config.domains;
  Alcotest.(check string) "policy override" "wcoj"
    (Planner.policy_name cfg.Engine.Config.algo_policy);
  Alcotest.(check bool) "backend follows the plane" true
    (Engine.Config.backend cfg = Cost.Cache.Frame);
  let clamped = Engine.Config.make ~domains:0 () in
  Alcotest.(check int) "domains clamped to >= 1" 1
    clamped.Engine.Config.domains;
  let seed = Engine.Config.make ~plane:Engine.Seed () in
  Alcotest.(check bool) "seed backend" true
    (Engine.Config.backend seed = Cost.Cache.Seed)

let test_parsing () =
  Alcotest.(check bool) "plane: seed" true
    (Engine.plane_of_string " Seed " = Some Engine.Seed);
  Alcotest.(check bool) "plane: frame" true
    (Engine.plane_of_string "FRAME" = Some Engine.Frame);
  Alcotest.(check bool) "plane: junk rejected" true
    (Engine.plane_of_string "columnar" = None);
  Alcotest.(check bool) "policy: hash" true
    (Planner.policy_of_string "hash" = Some Planner.Hash_all);
  Alcotest.(check bool) "policy: cost is an alias of hash" true
    (Planner.policy_of_string " COST " = Some Planner.Hash_all);
  Alcotest.(check string) "the alias prints as hash" "hash"
    (Planner.policy_name (Option.get (Planner.policy_of_string "cost")));
  Alcotest.(check bool) "policy: junk rejected" true
    (Planner.policy_of_string "greedy" = None)

(* Frame executions are deterministic in the domain count through the
   full Config → lower → execute path. *)
let test_frame_domain_determinism () =
  let rng = Random.State.make [| 7; 2026 |] in
  let db = Dbgen.uniform_db ~rng ~rows:8 ~domain:3 (Querygraph.chain 4) in
  let s = Strategy.left_deep (Database.scheme_list db) in
  let run domains =
    Engine.run (Engine.Config.make ~plane:Engine.Frame ~domains ()) db s
  in
  let r1, s1 = run 1 in
  let r4, s4 = run 4 in
  Alcotest.(check bool) "identical results at 1 and 4 domains" true
    (Relation.equal r1 r4);
  Alcotest.(check int) "identical tau" s1.Engine.tuples_generated
    s4.Engine.tuples_generated

let () =
  Alcotest.run "planner"
    [
      ( "equivalence",
        [
          qtest "every policy x plane: same result, tau, and steps" ~count:40
            gen_case equivalence;
        ] );
      ( "config",
        [
          Alcotest.test_case "explicit overrides beat the environment" `Quick
            test_config_overrides;
          Alcotest.test_case "plane and policy parsing" `Quick test_parsing;
          Alcotest.test_case "frame plane: domain-count determinism" `Quick
            test_frame_domain_determinism;
        ] );
    ]

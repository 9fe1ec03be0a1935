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
  let clamped = Engine.Config.make ~domains:0 () in
  Alcotest.(check int) "domains clamped to >= 1" 1
    clamped.Engine.Config.domains

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

(* A cyclic strategy lowers under [Yannakakis] exactly as under [Wcoj]:
   one generic join over the whole scheme set, in the same elimination
   order.  Cycles and random graphs of 3–6 relations; the acyclic draws
   among the random graphs are skipped. *)
let gen_cyclic_case =
  let open QCheck2.Gen in
  let* kind = int_range 2 3 in
  let* n = int_range 3 6 in
  let* seed = int_range 0 100_000 in
  let rng = Random.State.make [| seed; n; kind |] in
  let d = shape kind n in
  let db = Dbgen.uniform_db ~rng ~rows:4 ~domain:3 d in
  return (db, Enumerate.random_strategy ~rng d)

let yann_cyclic_is_wcoj (db, s) =
  QCheck2.assume (Planner.is_cyclic (Strategy.schemes s));
  let lower policy = Physical.to_string (Planner.lower ~policy db s) in
  lower Planner.Yannakakis = lower Planner.Wcoj

(* The yann lowering of a chain of 70 relations: 71 attributes, wider
   than one int, so the ear search runs on two-word bitsets.  The root
   the catalog picks and the elimination order (each [ear>parent]) are
   pinned. *)
let test_yann_chain70 () =
  let d = Querygraph.chain 70 in
  let rng = Random.State.make [| 70 |] in
  let db = Dbgen.uniform_db ~rng ~rows:4 ~domain:3 d in
  let s = Enumerate.random_strategy ~rng d in
  match Planner.lower ~policy:Planner.Yannakakis db s with
  | Physical.Semijoin_program rt ->
      Alcotest.(check string) "root" "c34,c35"
        (Scheme.to_string rt.Jointree.root);
      Alcotest.(check string) "elimination order"
        "c69,c70>c68,c69 c68,c69>c67,c68 c0,c1>c1,c2 c67,c68>c66,c67 \
         c1,c2>c2,c3 c66,c67>c65,c66 c2,c3>c3,c4 c65,c66>c64,c65 \
         c3,c4>c4,c5 c64,c65>c63,c64 c4,c5>c5,c6 c63,c64>c62,c63 \
         c5,c6>c6,c7 c62,c63>c61,c62 c6,c7>c7,c8 c61,c62>c60,c61 \
         c7,c8>c8,c9 c60,c61>c59,c60 c8,c9>c10,c9 c59,c60>c58,c59 \
         c10,c9>c10,c11 c58,c59>c57,c58 c10,c11>c11,c12 c57,c58>c56,c57 \
         c11,c12>c12,c13 c56,c57>c55,c56 c12,c13>c13,c14 \
         c55,c56>c54,c55 c13,c14>c14,c15 c54,c55>c53,c54 \
         c14,c15>c15,c16 c53,c54>c52,c53 c15,c16>c16,c17 \
         c52,c53>c51,c52 c16,c17>c17,c18 c51,c52>c50,c51 \
         c17,c18>c18,c19 c50,c51>c49,c50 c18,c19>c19,c20 \
         c49,c50>c48,c49 c19,c20>c20,c21 c48,c49>c47,c48 \
         c20,c21>c21,c22 c47,c48>c46,c47 c21,c22>c22,c23 \
         c46,c47>c45,c46 c22,c23>c23,c24 c45,c46>c44,c45 \
         c23,c24>c24,c25 c44,c45>c43,c44 c24,c25>c25,c26 \
         c43,c44>c42,c43 c25,c26>c26,c27 c42,c43>c41,c42 \
         c26,c27>c27,c28 c41,c42>c40,c41 c27,c28>c28,c29 \
         c40,c41>c39,c40 c28,c29>c29,c30 c39,c40>c38,c39 \
         c29,c30>c30,c31 c38,c39>c37,c38 c30,c31>c31,c32 \
         c37,c38>c36,c37 c31,c32>c32,c33 c36,c37>c35,c36 \
         c32,c33>c33,c34 c35,c36>c34,c35 c33,c34>c34,c35"
        (String.concat " "
           (List.map
              (fun (e, p) -> Scheme.to_string e ^ ">" ^ Scheme.to_string p)
              rt.Jointree.elims))
  | _ -> Alcotest.fail "chain-70 did not lower to a semijoin program"

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
      ( "yann",
        [
          Alcotest.test_case "chain-70 plan" `Quick test_yann_chain70;
          qtest "cyclic strategies: the yann lowering is the wcoj lowering"
            ~count:60 gen_cyclic_case yann_cyclic_is_wcoj;
        ] );
    ]

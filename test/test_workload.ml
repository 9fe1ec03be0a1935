(* Tests for the workload generators and the Yannakakis library. *)

open Mj_relation
open Mj_hypergraph
open Multijoin
open Mj_workload

let qtest name ?(count = 100) gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~name ~count gen prop)

let scheme_ab = Scheme.of_string "AB"

(* ------------------------------------------------------------------ *)
(* Datagen                                                              *)
(* ------------------------------------------------------------------ *)

let test_uniform_bounds () =
  let rng = Random.State.make [| 1 |] in
  let r = Datagen.uniform ~rng ~rows:50 ~domain:4 scheme_ab in
  Alcotest.(check bool) "at most 50" true (Relation.cardinality r <= 50);
  Relation.iter
    (fun tu ->
      List.iter
        (fun (_, v) ->
          match v with
          | Value.Int x ->
              Alcotest.(check bool) "in domain" true (x >= 0 && x < 4)
          | Value.Str _ -> Alcotest.fail "expected integer values")
        (Tuple.bindings tu))
    r

let test_uniform_invalid () =
  let rng = Random.State.make [| 1 |] in
  (match Datagen.uniform ~rng ~rows:(-1) ~domain:4 scheme_ab with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "negative rows");
  match Datagen.uniform ~rng ~rows:1 ~domain:0 scheme_ab with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "empty domain"

let test_injective_distinct_columns () =
  let rng = Random.State.make [| 2 |] in
  let r = Datagen.injective ~rng ~rows:6 ~domain:10 scheme_ab in
  Alcotest.(check int) "exactly 6 rows" 6 (Relation.cardinality r);
  Attr.Set.iter
    (fun a ->
      Alcotest.(check int) "column injective" 6
        (List.length (Relation.distinct_values r a)))
    scheme_ab

let test_injective_contains_spine () =
  let rng = Random.State.make [| 3 |] in
  let r = Datagen.injective ~rng ~rows:4 ~domain:9 scheme_ab in
  let spine =
    Tuple.of_list
      (List.map (fun a -> (a, Value.int 0)) (Attr.Set.elements scheme_ab))
  in
  Alcotest.(check bool) "spine present" true (Relation.mem spine r)

let test_injective_too_many_rows () =
  let rng = Random.State.make [| 4 |] in
  match Datagen.injective ~rng ~rows:11 ~domain:10 scheme_ab with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "rows > domain must be rejected"

let test_zipf_skew () =
  (* With strong skew, value 0 must dominate the single-attribute
     marginal. *)
  let rng = Random.State.make [| 5 |] in
  let scheme = Scheme.of_string "A" in
  let r = Datagen.zipf ~rng ~rows:2000 ~domain:50 ~skew:1.5 scheme in
  let zero_count =
    ref 0
  in
  ignore r;
  (* Count over raw draws instead: regenerate tuples via many small
     relations would dedup; draw using the generator repeatedly. *)
  let rng = Random.State.make [| 5 |] in
  for _ = 1 to 2000 do
    let single = Datagen.zipf ~rng ~rows:1 ~domain:50 ~skew:1.5 scheme in
    Relation.iter
      (fun tu ->
        if Value.equal (Tuple.get tu (Attr.make "A")) (Value.int 0) then
          incr zero_count)
      single
  done;
  Alcotest.(check bool) "hot value dominates uniform share" true
    (!zero_count > 2000 / 50 * 3)

let test_with_spine () =
  let rng = Random.State.make [| 6 |] in
  let r = Datagen.with_spine Datagen.uniform ~rng ~rows:5 ~domain:3 scheme_ab in
  let spine =
    Tuple.of_list
      (List.map (fun a -> (a, Value.int 0)) (Attr.Set.elements scheme_ab))
  in
  Alcotest.(check bool) "spine present" true (Relation.mem spine r)

(* ------------------------------------------------------------------ *)
(* Dbgen regimes                                                        *)
(* ------------------------------------------------------------------ *)

let prop_superkey_regime_c3 =
  qtest "superkey_db satisfies C3" ~count:30
    QCheck2.Gen.(pair (int_range 2 5) (int_range 0 10_000))
    (fun (n, seed) ->
      let rng = Random.State.make [| seed; n; 51 |] in
      let d = Querygraph.random ~extra_edge_prob:0.3 ~rng n in
      let db = Dbgen.superkey_db ~rng ~rows:5 ~domain:9 d in
      Conditions.holds_c3 db)

let prop_all_regimes_nonempty_join =
  qtest "all regimes guarantee a non-empty global join" ~count:30
    QCheck2.Gen.(pair (int_range 2 5) (int_range 0 10_000))
    (fun (n, seed) ->
      let rng = Random.State.make [| seed; n; 52 |] in
      let d = Querygraph.random ~extra_edge_prob:0.2 ~rng n in
      let dbs =
        [
          Dbgen.superkey_db ~rng ~rows:4 ~domain:8 d;
          Dbgen.uniform_db ~rng ~rows:4 ~domain:3 d;
          Dbgen.skewed_db ~rng ~rows:4 ~domain:4 ~skew:1.0 d;
        ]
      in
      List.for_all
        (fun db -> not (Relation.is_empty (Database.join_all db)))
        dbs)

let prop_consistent_acyclic_regime =
  qtest "consistent_acyclic_db: pairwise consistent, C4 on gamma-acyclic"
    ~count:30
    QCheck2.Gen.(pair (int_range 2 5) (int_range 0 10_000))
    (fun (n, seed) ->
      let rng = Random.State.make [| seed; n; 53 |] in
      let d = Querygraph.chain n in
      let db = Dbgen.consistent_acyclic_db ~rng ~rows:5 ~domain:4 d in
      Mj_relation.Consistency.pairwise_consistent db
      && Semantic.gamma_acyclic_consistent db
      && Conditions.holds_c4 db)

let test_consistent_acyclic_rejects_cyclic () =
  let rng = Random.State.make [| 7 |] in
  match
    Dbgen.consistent_acyclic_db ~rng ~rows:3 ~domain:3
      (Querygraph.cycle 4)
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "cyclic scheme must be rejected"

(* ------------------------------------------------------------------ *)
(* Scenario inventory                                                   *)
(* ------------------------------------------------------------------ *)

let test_scenarios_inventory () =
  Alcotest.(check int) "eight scenarios" 8 (List.length Scenarios.all);
  List.iter
    (fun (name, db) ->
      Alcotest.(check bool)
        (name ^ " has a non-empty join")
        true
        (not (Relation.is_empty (Database.join_all db))))
    Scenarios.all

let test_example3_intermediates () =
  (* All three strategies generate exactly 4 intermediate tuples. *)
  let db = Scenarios.example3 in
  List.iter
    (fun src ->
      let s = Strategy.of_string src in
      match Cost.step_costs db s with
      | [ (_, first); _ ] ->
          Alcotest.(check int) (src ^ " first step") 4 first
      | _ -> Alcotest.fail "expected two steps")
    [ "(GS * SC) * CL"; "GS * (SC * CL)"; "(GS * CL) * SC" ]

(* ------------------------------------------------------------------ *)
(* Yannakakis                                                           *)
(* ------------------------------------------------------------------ *)

let acyclic_db ~seed n =
  let rng = Random.State.make [| seed; n; 61 |] in
  Dbgen.uniform_db ~rng ~rows:5 ~domain:3 (Querygraph.chain n)

let test_full_reduce_preserves_join () =
  let db = acyclic_db ~seed:1 4 in
  let reduced = Mj_yannakakis.Yannakakis.full_reduce db in
  Alcotest.(check bool) "same global join" true
    (Relation.equal (Database.join_all db) (Database.join_all reduced))

let test_full_reduce_consistent () =
  let db = acyclic_db ~seed:2 4 in
  let reduced = Mj_yannakakis.Yannakakis.full_reduce db in
  Alcotest.(check bool) "globally consistent" true
    (Mj_relation.Consistency.globally_consistent reduced)

let test_full_reduce_rejects_cyclic () =
  let rng = Random.State.make [| 8 |] in
  let db = Dbgen.uniform_db ~rng ~rows:3 ~domain:3 (Querygraph.cycle 4) in
  match Mj_yannakakis.Yannakakis.full_reduce db with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "cyclic scheme must be rejected"

let test_evaluate_matches_join_all () =
  let db = acyclic_db ~seed:3 5 in
  Alcotest.(check bool) "evaluate = join_all" true
    (Relation.equal (Mj_yannakakis.Yannakakis.evaluate db) (Database.join_all db))

let test_yannakakis_strategy_shape () =
  let d = Querygraph.chain 5 in
  match Mj_yannakakis.Yannakakis.strategy d with
  | None -> Alcotest.fail "chain must have a strategy"
  | Some s ->
      Alcotest.(check bool) "linear" true (Strategy.is_linear s);
      Alcotest.(check bool) "no CP" false (Strategy.uses_cartesian s);
      Alcotest.(check int) "full size" 5 (Strategy.size s)

let test_yannakakis_strategy_cyclic () =
  Alcotest.(check bool) "none for cyclic" true
    (Mj_yannakakis.Yannakakis.strategy (Querygraph.cycle 4) = None)

let prop_yannakakis_monotone_after_reduction =
  qtest "after reduction, Yannakakis's steps are monotone increasing"
    ~count:30
    QCheck2.Gen.(pair (int_range 3 5) (int_range 0 10_000))
    (fun (n, seed) ->
      let rng = Random.State.make [| seed; n; 62 |] in
      let db =
        Dbgen.uniform_db ~rng ~rows:5 ~domain:3 (Querygraph.chain n)
      in
      let reduced = Mj_yannakakis.Yannakakis.full_reduce db in
      match Mj_yannakakis.Yannakakis.strategy (Database.schemes db) with
      | None -> false
      | Some s -> Monotone.is_monotone_increasing reduced s)

let prop_yannakakis_vs_optimum =
  qtest "tau(Yannakakis) >= tau-optimum of the reduced database" ~count:30
    QCheck2.Gen.(pair (int_range 3 5) (int_range 0 10_000))
    (fun (n, seed) ->
      let rng = Random.State.make [| seed; n; 63 |] in
      let db = Dbgen.uniform_db ~rng ~rows:5 ~domain:3 (Querygraph.chain n) in
      let reduced = Mj_yannakakis.Yannakakis.full_reduce db in
      let yann = Mj_yannakakis.Yannakakis.tau_after_reduction db in
      match Optimal.optimum reduced with
      | Some best -> yann >= best.cost
      | None -> false)

(* ------------------------------------------------------------------ *)
(* Generated-data goldens                                               *)
(* ------------------------------------------------------------------ *)

(* The digest of every relation the serve protocol materializes for one
   workload per regime.  The generators are a pure function of the
   workload, so these pin both the RNG draw order and the data layout
   (a change to either shows up as a different digest). *)
let materialize_goldens =
  let w shape n domain regime seed =
    { Mj_serve.Protocol.shape; n; rows = 200; domain; regime; seed }
  in
  [
    ( w "chain" 4 30 "uniform" 11,
      [
        ("c0,c1", 177, "680c5a0c97062f25");
        ("c1,c2", 186, "7c51209e70355b38");
        ("c2,c3", 180, "03403ead71d4806b");
        ("c3,c4", 179, "219a074b4580b34e");
      ] );
    ( w "cycle" 3 40 "skewed" 12,
      [
        ("c0,c1", 112, "742b7c8efd14ff81");
        ("c0,c2", 123, "8519cc55cf0d1e82");
        ("c1,c2", 117, "1982d2e717a049c5");
      ] );
    ( w "star" 4 400 "superkey" 13,
      [
        ("s1,s2,s3", 200, "a44b812683c1e13d");
        ("s1,t1", 200, "88ab7ee1f11b8dcc");
        ("s2,t2", 200, "d231f2bb5ac47fb9");
        ("s3,t3", 200, "cb689311362e0a0d");
      ] );
    ( w "snowflake" 5 25 "consistent" 14,
      [
        ("d1,d1_1,u1", 196, "65e60d64e89c90c0");
        ("d1,d2", 175, "24530caa2fb3b1c6");
        ("d1_1,w1_1", 172, "9b3ddf997c38e560");
        ("d2,d2_1,u2", 201, "5f5eeaf965a5aa84");
        ("d2_1,w2_1", 172, "29c0185ca8dd4c2f");
      ] );
  ]

let test_materialize_goldens () =
  List.iter
    (fun (w, want) ->
      let key = Mj_serve.Protocol.workload_key w in
      let got =
        List.map
          (fun r ->
            ( Attr.Set.to_string (Relation.scheme r),
              Relation.cardinality r,
              Printf.sprintf "%016Lx" (Relation.digest r) ))
          (Database.relations (Mj_serve.Protocol.materialize w))
      in
      Alcotest.(check (list (triple string int string))) key want got)
    materialize_goldens

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "mj_workload"
    [
      ( "datagen",
        [
          Alcotest.test_case "uniform bounds" `Quick test_uniform_bounds;
          Alcotest.test_case "uniform invalid" `Quick test_uniform_invalid;
          Alcotest.test_case "injective columns" `Quick
            test_injective_distinct_columns;
          Alcotest.test_case "injective spine" `Quick
            test_injective_contains_spine;
          Alcotest.test_case "injective too many rows" `Quick
            test_injective_too_many_rows;
          Alcotest.test_case "zipf skew" `Quick test_zipf_skew;
          Alcotest.test_case "with_spine" `Quick test_with_spine;
          Alcotest.test_case "materialize goldens" `Quick
            test_materialize_goldens;
        ] );
      ( "dbgen",
        [
          prop_superkey_regime_c3;
          prop_all_regimes_nonempty_join;
          prop_consistent_acyclic_regime;
          Alcotest.test_case "rejects cyclic" `Quick
            test_consistent_acyclic_rejects_cyclic;
        ] );
      ( "scenarios",
        [
          Alcotest.test_case "inventory" `Quick test_scenarios_inventory;
          Alcotest.test_case "example 3 intermediates" `Quick
            test_example3_intermediates;
        ] );
      ( "yannakakis",
        [
          Alcotest.test_case "reduce preserves join" `Quick
            test_full_reduce_preserves_join;
          Alcotest.test_case "reduce gives consistency" `Quick
            test_full_reduce_consistent;
          Alcotest.test_case "reduce rejects cyclic" `Quick
            test_full_reduce_rejects_cyclic;
          Alcotest.test_case "evaluate = join_all" `Quick
            test_evaluate_matches_join_all;
          Alcotest.test_case "strategy shape" `Quick
            test_yannakakis_strategy_shape;
          Alcotest.test_case "strategy cyclic" `Quick
            test_yannakakis_strategy_cyclic;
          prop_yannakakis_monotone_after_reduction;
          prop_yannakakis_vs_optimum;
        ] );
    ]

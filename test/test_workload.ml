(* Tests for the workload generators and Yannakakis's own order (the
   engine's semijoin program over GYO's ear tree). *)

open Mj_relation
open Mj_hypergraph
open Multijoin
open Mj_workload
module Engine = Mj_engine.Engine
module Physical = Mj_engine.Physical

let qtest name ?(count = 100) gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~name ~count gen prop)

let scheme_ab = Scheme.of_string "AB"

(* The relation state one generated block codes. *)
let relation scheme b =
  Database.find (Database.of_coded (Coded.of_ints [ (scheme, b) ])) scheme

(* ------------------------------------------------------------------ *)
(* Datagen                                                              *)
(* ------------------------------------------------------------------ *)

let test_uniform_bounds () =
  let rng = Random.State.make [| 1 |] in
  let r = relation scheme_ab (Datagen.uniform ~rng ~rows:50 ~domain:4 scheme_ab) in
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
  let r = relation scheme_ab (Datagen.injective ~rng ~rows:6 ~domain:10 scheme_ab) in
  Alcotest.(check int) "exactly 6 rows" 6 (Relation.cardinality r);
  Attr.Set.iter
    (fun a ->
      Alcotest.(check int) "column injective" 6
        (List.length (Relation.distinct_values r a)))
    scheme_ab

let test_injective_contains_spine () =
  let rng = Random.State.make [| 3 |] in
  let r = relation scheme_ab (Datagen.injective ~rng ~rows:4 ~domain:9 scheme_ab) in
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
  let r = relation scheme (Datagen.zipf ~rng ~rows:2000 ~domain:50 ~skew:1.5 scheme) in
  let zero_count =
    ref 0
  in
  ignore r;
  (* Count over raw draws instead: regenerate tuples via many small
     relations would dedup; draw using the generator repeatedly. *)
  let rng = Random.State.make [| 5 |] in
  for _ = 1 to 2000 do
    let single =
      relation scheme (Datagen.zipf ~rng ~rows:1 ~domain:50 ~skew:1.5 scheme)
    in
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
  let r =
    relation scheme_ab
      (Datagen.with_spine Datagen.uniform ~rng ~rows:5 ~domain:3 scheme_ab)
  in
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

(* Yannakakis's own order: a semijoin program over GYO's ear tree. *)
let ear_plan db =
  match Gyo.rooted_ear_tree (Database.schemes db) with
  | Some rt -> Physical.Semijoin_program rt
  | None -> Alcotest.fail "expected an acyclic scheme"

let run_ear_plan db =
  Engine.execute_plan (Engine.Config.make ~plane:Engine.Seed ()) db
    (ear_plan db)

let test_reduce_preserves_join () =
  let db = acyclic_db ~seed:1 4 in
  let reduced = Consistency.semijoin_reduce db in
  Alcotest.(check bool) "same global join" true
    (Relation.equal (Database.join_all db) (Database.join_all reduced))

let test_reduce_consistent () =
  let db = acyclic_db ~seed:2 4 in
  let reduced = Consistency.semijoin_reduce db in
  Alcotest.(check bool) "globally consistent" true
    (Consistency.globally_consistent reduced)

let test_evaluate_matches_join_all () =
  let db = acyclic_db ~seed:3 5 in
  Alcotest.(check bool) "evaluate = join_all" true
    (Relation.equal (fst (run_ear_plan db)) (Database.join_all db))

let test_yannakakis_strategy_shape () =
  let db = acyclic_db ~seed:3 5 in
  let s = Physical.strategy_of (ear_plan db) in
  Alcotest.(check bool) "linear" true (Strategy.is_linear s);
  Alcotest.(check bool) "no CP" false (Strategy.uses_cartesian s);
  Alcotest.(check int) "full size" 5 (Strategy.size s)

let test_yannakakis_strategy_cyclic () =
  Alcotest.(check bool) "none for cyclic" true
    (Gyo.rooted_ear_tree (Querygraph.cycle 4) = None)

let prop_yannakakis_monotone_after_reduction =
  qtest "after reduction, Yannakakis's steps are monotone increasing"
    ~count:30
    QCheck2.Gen.(pair (int_range 3 5) (int_range 0 10_000))
    (fun (n, seed) ->
      let rng = Random.State.make [| seed; n; 62 |] in
      let db =
        Dbgen.uniform_db ~rng ~rows:5 ~domain:3 (Querygraph.chain n)
      in
      let reduced = Consistency.semijoin_reduce db in
      Monotone.is_monotone_increasing reduced
        (Physical.strategy_of (ear_plan db)))

let prop_yannakakis_vs_optimum =
  qtest "tau(Yannakakis) >= tau-optimum of the reduced database" ~count:30
    QCheck2.Gen.(pair (int_range 3 5) (int_range 0 10_000))
    (fun (n, seed) ->
      let rng = Random.State.make [| seed; n; 63 |] in
      let db = Dbgen.uniform_db ~rng ~rows:5 ~domain:3 (Querygraph.chain n) in
      let reduced = Consistency.semijoin_reduce db in
      let yann = (snd (run_ear_plan db)).Engine.tuples_generated in
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

(* The oneshot-large benchmark's data size: rows=6000, one workload per
   oneshot kind (the two cycle kinds share the skewed data, so the
   second pins a superkey path instead).  Pinned from the tuple-building
   generators; each relation must give the same digest through the seed
   state it decodes and through the frame the coded form wraps, and the
   dictionary must hold exactly the values present. *)
let oneshot_goldens =
  let w shape n regime seed =
    let rows = 6000 in
    {
      Mj_serve.Protocol.shape;
      n;
      rows;
      domain = (if regime = "skewed" then rows / 8 else rows);
      regime;
      seed;
    }
  in
  [
    ( w "chain" 4 "uniform" 0,
      5999,
      [
        ("c0,c1", 6001, "e01ae7c82950e1f1");
        ("c1,c2", 6001, "c950de9496f7bbb2");
        ("c2,c3", 6000, "c2a88d59dd264e61");
        ("c3,c4", 6001, "e9c1a1a4bab9a24f");
      ] );
    ( w "star" 4 "uniform" 2,
      5998,
      [
        ("s1,s2,s3", 6001, "6adeda0f83fb1881");
        ("s1,t1", 6000, "7f0f364549cb98c3");
        ("s2,t2", 6001, "494d4cd4cc58e77e");
        ("s3,t3", 6001, "89b5145cf00a9d49");
      ] );
    ( w "cycle" 3 "skewed" 3,
      743,
      [
        ("c0,c1", 2862, "b4e482aef9cc5609");
        ("c0,c2", 2873, "c0d2bad36be32abb");
        ("c1,c2", 2839, "2185f3a75125646e");
      ] );
    ( w "snowflake" 5 "uniform" 1,
      6000,
      [
        ("d1,d1_1,u1", 6001, "d0ae7c7ac2f82ea0");
        ("d1,d2", 6000, "4713906102e68cce");
        ("d1_1,w1_1", 6001, "f3b18935c272e8ce");
        ("d2,d2_1,u2", 6001, "cd7e6c0e144e9275");
        ("d2_1,w2_1", 5999, "f15ea0e44307954c");
      ] );
    ( w "path" 4 "superkey" 3,
      6000,
      [
        ("c0,c1,p0", 6000, "b2d85411318944d2");
        ("c1,c2,p1", 6000, "a664413ad17097ed");
        ("c2,c3,p2", 6000, "a9068b6e0744a06c");
        ("c3,c4,p3", 6000, "e1757b24d718e1c3");
      ] );
  ]

let hex = Printf.sprintf "%016Lx"

let test_oneshot_goldens () =
  List.iter
    (fun (w, dict_size, want) ->
      let key = Mj_serve.Protocol.workload_key w in
      let db = Mj_serve.Protocol.materialize w in
      let fdb = Frame.Db.of_database db in
      let via_frames =
        List.map
          (fun s ->
            let f = Frame.Db.find fdb s in
            (Attr.Set.to_string s, Frame.cardinality f, hex (Frame.digest f)))
          (Database.scheme_list db)
      in
      Alcotest.(check (list (triple string int string)))
        (key ^ " (frames)") want via_frames;
      Alcotest.(check int) (key ^ " dict") dict_size
        (Frame.Dict.size (Frame.Db.dict fdb));
      Alcotest.(check int) (key ^ " frames force nothing") 0
        (Database.seed_forced db);
      let via_seeds =
        List.map
          (fun r ->
            ( Attr.Set.to_string (Relation.scheme r),
              Relation.cardinality r,
              hex (Relation.digest r) ))
          (Database.relations db)
      in
      Alcotest.(check (list (triple string int string)))
        (key ^ " (seed states)") want via_seeds)
    oneshot_goldens

(* ------------------------------------------------------------------ *)
(* Coded databases against their relation-built twins                   *)
(* ------------------------------------------------------------------ *)

let workload_gen =
  QCheck2.Gen.(
    let* shape =
      oneofl [ "chain"; "star"; "cycle"; "clique"; "path"; "snowflake"; "random" ]
    in
    let* regime = oneofl Dbgen.regimes in
    let* n = int_range 2 5 in
    let* rows = oneof [ pure 0; int_range 0 30 ] in
    let* domain = oneof [ pure 1; int_range 1 30 ] in
    let* seed = int_range 0 10_000 in
    let n = if shape = "cycle" || shape = "clique" then max 3 n else n in
    pure { Mj_serve.Protocol.shape; n; rows; domain; regime; seed })

let print_workload = Mj_serve.Protocol.workload_key

(* The generator may refuse a workload: injective columns need
   rows <= domain, and the consistent regime needs an alpha-acyclic
   scheme (the same graph the uniform regime draws from the seed). *)
let refused (w : Mj_serve.Protocol.workload) =
  (w.regime = "superkey" && w.rows > w.domain)
  || w.regime = "consistent"
     && not
          (Gyo.is_alpha_acyclic
             (Database.schemes
                (Mj_serve.Protocol.materialize { w with regime = "uniform" })))

let same_form db twin =
  let fdb = Frame.Db.of_database db and ftwin = Frame.Db.of_database twin in
  let cat = Mj_optimizer.Catalog.of_database db in
  List.for_all
    (fun s ->
      Int64.equal
        (Frame.digest (Frame.Db.find fdb s))
        (Frame.digest (Frame.Db.find ftwin s))
      && Int64.equal
           (Frame.digest (Frame.Db.find fdb s))
           (Relation.digest (Database.find twin s))
      && Database.cardinality db s = Relation.cardinality (Database.find twin s)
      && Attr.Set.for_all
           (fun a ->
             Mj_optimizer.Catalog.distinct cat s a
             = List.length (Relation.distinct_values (Database.find twin s) a))
           s)
    (Database.scheme_list db)
  && Mj_optimizer.Catalog.equal cat (Mj_optimizer.Catalog.of_database twin)
  && Frame.Dict.size (Frame.Db.dict fdb) = Frame.Dict.size (Frame.Db.dict ftwin)
  && Database.equal db twin

let prop_coded_twin =
  QCheck2.Test.make ~count:200 ~print:print_workload
    ~name:"coded database = its relation-built twin (digests, catalog, dict)"
    workload_gen (fun w ->
      match Mj_serve.Protocol.materialize w with
      | exception Invalid_argument _ -> refused w
      | db ->
          (not (refused w))
          &&
          let twin = Database.of_relations (Database.relations db) in
          Database.seed_forced twin = 0
          && (w.regime = "consistent" || Database.seed_forced db = Database.size db)
          && same_form db twin)
  |> QCheck_alcotest.to_alcotest

(* A domain far wider than the data takes the sorting path: nothing is
   sized by the domain, and the dictionary still holds exactly the values
   present, in order. *)
let test_wide_domain () =
  let w =
    { Mj_serve.Protocol.shape = "chain"; n = 3; rows = 40; domain = 1 lsl 29;
      regime = "uniform"; seed = 3 }
  in
  let db = Mj_serve.Protocol.materialize w in
  let twin = Database.of_relations (Database.relations db) in
  Alcotest.(check bool) "same as the twin" true (same_form db twin);
  let c = Database.coded db in
  let values = Array.to_list c.Coded.values in
  Alcotest.(check bool) "ascending" true
    (List.sort_uniq Value.compare values = values);
  Alcotest.(check bool) "wide values kept" true
    (List.exists (fun v -> Value.compare v (Value.int (1 lsl 20)) > 0) values)

(* ------------------------------------------------------------------ *)
(* Laziness: who forces the seed states                                 *)
(* ------------------------------------------------------------------ *)

module Planner = Mj_engine.Planner
module Frame_engine = Mj_engine.Frame_engine
module Obs = Mj_obs.Obs

let lazy_workloads =
  let w shape n regime =
    { Mj_serve.Protocol.shape; n; rows = 300; domain = 300; regime; seed = 5 }
  in
  [
    w "chain" 4 "uniform"; w "star" 4 "uniform"; w "cycle" 3 "skewed";
    w "snowflake" 5 "uniform"; w "path" 4 "superkey";
  ]

let config ~plane ~policy obs =
  { (Engine.Config.make ~plane ~policy ~domains:2 ~obs ()) with telemetry = None }

(* The frame-plane pipeline mjbench runs — materialize, encode, lower,
   execute (and the daemon's digest finisher) — never decodes a seed
   state, and says so on its sink. *)
let test_frame_pipeline_forces_nothing () =
  List.iter
    (fun w ->
      List.iter
        (fun policy ->
          let obs = Obs.make () in
          let cfg = config ~plane:Engine.Frame ~policy obs in
          let db = Mj_serve.Protocol.materialize w in
          let fdb = Frame.Db.of_database db in
          let plan = Engine.lower cfg db (Mj_serve.Protocol.default_strategy db) in
          ignore (Engine.execute_plan ~fdb cfg db plan);
          ignore (Engine.execute_digest cfg db plan);
          let where =
            Mj_serve.Protocol.workload_key w ^ " " ^ Planner.policy_name policy
          in
          Alcotest.(check int) (where ^ ": forced") 0 (Database.seed_forced db);
          Alcotest.(check (option int))
            (where ^ ": counter") (Some 0)
            (List.assoc_opt "db.seed_forced" (Obs.counters obs)))
        Planner.[ Hash_all; Yannakakis; Wcoj ])
    lazy_workloads

(* Theorem verification on frames reads R_D ≠ ∅ from its cache and
   counts every sub-database through the frame plane, so a generated
   database keeps its coded form, in every regime, connected or not. *)
let test_verify_on_frames_forces_nothing () =
  let middle = Attr.Set.of_list [ Attr.make "c2"; Attr.make "c3" ] in
  List.iter
    (fun (regime, d) ->
      let make () =
        Dbgen.of_regime ~regime ~rng:(Random.State.make [| 3 |]) ~rows:6
          ~domain:6 d
      in
      let db = make () in
      let r = Theorems.verify ~backend:Cost.Cache.Frame db in
      Alcotest.(check int) (regime ^ ": forced") 0 (Database.seed_forced db);
      Alcotest.(check bool) (regime ^ ": seed agrees") true
        (r = Theorems.verify ~backend:Cost.Cache.Seed (make ())))
    [
      ( "uniform",
        Querygraph.random ~extra_edge_prob:0.3 ~rng:(Random.State.make [| 5 |]) 5 );
      ("skewed", Querygraph.chain 6);
      (* A chain without its middle relation: D is unconnected. *)
      ("superkey", Scheme.Set.remove middle (Querygraph.chain 5));
    ]

let test_seed_plane_forces_once () =
  List.iter
    (fun w ->
      let obs = Obs.make () in
      let cfg = config ~plane:Engine.Seed ~policy:Planner.Hash_all obs in
      let db = Mj_serve.Protocol.materialize w in
      let strategy = Mj_serve.Protocol.default_strategy db in
      let r1, _ = Engine.run cfg db strategy in
      let r2, _ = Engine.run cfg db strategy in
      let where = Mj_serve.Protocol.workload_key w in
      Alcotest.(check bool) (where ^ ": same answer") true (Relation.equal r1 r2);
      Alcotest.(check int) (where ^ ": each once") (Database.size db)
        (Database.seed_forced db);
      Alcotest.(check (option int))
        (where ^ ": counter") (Some (Database.size db))
        (List.assoc_opt "db.seed_forced" (Obs.counters obs)))
    lazy_workloads

(* Several pool domains force the same database at once: every racer
   returns the one published state, and each relation counts once. *)
let test_concurrent_forcing () =
  let w = List.hd lazy_workloads in
  let reference = Database.relations (Mj_serve.Protocol.materialize w) in
  for _ = 1 to 5 do
    let db = Mj_serve.Protocol.materialize w in
    let got =
      Mj_pool.Pool.run ~domains:4
        (Array.init 8 (fun _ () -> Database.relations db))
    in
    Array.iter
      (fun rs ->
        Alcotest.(check bool) "equal states" true
          (List.for_all2 Relation.equal reference rs);
        Alcotest.(check bool) "one published copy" true
          (List.for_all2 ( == ) got.(0) rs))
      got;
    Alcotest.(check int) "each relation once" (Database.size db)
      (Database.seed_forced db)
  done

(* Order on demand, as a work count: the oneshot-large chain-4 cost
   frame query (rows=6000, two domains) leaves every join output
   unsorted, so the only rows that go through a sort are the result's,
   sorted once by the decode finisher and once by the digest finisher
   of a separate run — and sorting them is what the counter, the sink
   and the stats all say.  A stats-only run of the same plan
   ([Engine.execute_stats], behind [optimize], [explain] and [stats])
   orders nothing and sorts no row. *)
let test_only_the_root_sorts () =
  let w =
    {
      Mj_serve.Protocol.shape = "chain";
      n = 4;
      rows = 6000;
      domain = 6000;
      regime = "uniform";
      seed = 0;
    }
  in
  let db = Mj_serve.Protocol.materialize w in
  let fdb = Frame.Db.of_database db in
  let frame_stats finish =
    let obs = Obs.make () in
    let cfg = config ~plane:Engine.Frame ~policy:Planner.Hash_all obs in
    let plan = Engine.lower cfg db (Mj_serve.Protocol.default_strategy db) in
    let fs = Option.get (finish cfg plan).Engine.frame in
    Alcotest.(check (option int))
      "sink counter" (Some fs.Frame_engine.sorted_rows)
      (List.assoc_opt "frame.sorted_rows" (Obs.counters obs));
    fs
  in
  let decoded =
    frame_stats (fun cfg plan -> snd (Engine.execute_plan ~fdb cfg db plan))
  in
  let digested =
    frame_stats (fun cfg plan -> snd (Engine.execute_digest ~fdb cfg db plan))
  in
  Alcotest.(check int) "result rows" 6210 decoded.Frame_engine.result_rows;
  Alcotest.(check int) "decode sorts the result rows"
    decoded.Frame_engine.result_rows decoded.Frame_engine.sorted_rows;
  Alcotest.(check int) "digest sorts the result rows"
    digested.Frame_engine.result_rows digested.Frame_engine.sorted_rows;
  let stats_only =
    frame_stats (fun cfg plan -> Engine.execute_stats cfg db plan)
  in
  Alcotest.(check (pair int int)) "a stats-only run sorts nothing"
    (6210, 0)
    (stats_only.Frame_engine.result_rows, stats_only.Frame_engine.sorted_rows)

(* The same pin on string values: the dictionary of a string-valued
   database is still in value order, and each finisher's one order
   pass is the only sort of the result rows. *)
let test_string_root_sorts_once () =
  let w =
    {
      Mj_serve.Protocol.shape = "chain";
      n = 4;
      rows = 400;
      domain = 400;
      regime = "uniform";
      seed = 0;
    }
  in
  let as_string v =
    match v with Value.Int k -> Value.str (Printf.sprintf "s%d" k) | v -> v
  in
  let db =
    Database.of_relations
      (List.map
         (fun r ->
           Relation.make (Relation.scheme r)
             (List.map
                (fun tu ->
                  Tuple.of_list
                    (List.map (fun (a, v) -> (a, as_string v)) (Tuple.bindings tu)))
                (Relation.tuples r)))
         (Database.relations (Mj_serve.Protocol.materialize w)))
  in
  let cfg =
    config ~plane:Engine.Frame ~policy:Planner.Hash_all Obs.noop
  in
  let plan = Engine.lower cfg db (Mj_serve.Protocol.default_strategy db) in
  let r, decoded = Engine.execute_plan cfg db plan in
  let d, digested = Engine.execute_digest cfg db plan in
  let decoded = Option.get decoded.Engine.frame
  and digested = Option.get digested.Engine.frame in
  Alcotest.(check bool) "strings" true
    (Relation.exists
       (fun tu -> match Tuple.value tu 0 with Value.Str _ -> true | _ -> false)
       r);
  Alcotest.(check int64) "digest" (Relation.digest r) d;
  Alcotest.(check bool) "more than one row" true (Relation.cardinality r > 1);
  Alcotest.(check int) "decode sorts the result rows once"
    (Relation.cardinality r) decoded.Frame_engine.sorted_rows;
  Alcotest.(check int) "digest sorts the result rows once"
    (Relation.cardinality r) digested.Frame_engine.sorted_rows

(* Row counts force nothing; a restricted view keeps the coded form and
   shares its states with the parent; replace forces the rest. *)
let test_derived_forms () =
  let w = List.hd lazy_workloads in
  let db = Mj_serve.Protocol.materialize w in
  let total = Database.total_tuples db in
  Alcotest.(check int) "total_tuples forces nothing" 0 (Database.seed_forced db);
  let d = Database.schemes db in
  let sub = Database.restrict db (Scheme.Set.singleton (Scheme.Set.min_elt d)) in
  ignore (Frame.Db.of_database sub);
  Alcotest.(check int) "restrict keeps the coded form" 0 (Database.seed_forced db);
  ignore (Database.relations sub);
  Alcotest.(check int) "forcing through the view counts once" 1
    (Database.seed_forced db);
  ignore (Database.find db (Scheme.Set.min_elt d));
  Alcotest.(check int) "the view shares the state" 1 (Database.seed_forced db);
  let swapped = Database.replace db (Database.find db (Scheme.Set.min_elt d)) in
  Alcotest.(check bool) "replace forces the rest" true
    (Database.seed_forced db = Database.size db && Database.equal swapped db);
  Alcotest.(check int) "same total" total (Database.total_tuples swapped)

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
          Alcotest.test_case "oneshot-scale goldens" `Quick
            test_oneshot_goldens;
        ] );
      ( "coded",
        [
          prop_coded_twin;
          Alcotest.test_case "wide domain" `Quick test_wide_domain;
          Alcotest.test_case "frame pipeline forces no seed state" `Quick
            test_frame_pipeline_forces_nothing;
          Alcotest.test_case "seed plane forces each relation once" `Quick
            test_seed_plane_forces_once;
          Alcotest.test_case "verify on frames forces no seed state" `Quick
            test_verify_on_frames_forces_nothing;
          Alcotest.test_case "concurrent forcing" `Quick test_concurrent_forcing;
          Alcotest.test_case "derived forms" `Quick test_derived_forms;
          Alcotest.test_case "only the root sorts" `Quick
            test_only_the_root_sorts;
          Alcotest.test_case "string values sort once" `Quick
            test_string_root_sorts_once;
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
            test_reduce_preserves_join;
          Alcotest.test_case "reduce gives consistency" `Quick
            test_reduce_consistent;
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

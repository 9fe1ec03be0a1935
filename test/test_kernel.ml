(* Equivalence suite for the bitmask subset kernel.

   Every property pits a kernel-backed implementation against the
   preserved seed implementation ({!Mj_benchkit.Legacy}: Scheme.Set BFS,
   enumerate-then-filter, string-keyed memos) on chain / star / cycle /
   clique / random query graphs.  The contracts under test are exact:
   not just the same sets and optima, but the same enumeration orders —
   the DP's tie-breaking makes order observable — plus the pool's
   determinism rule (identical output at any domain count). *)

open Mj_relation
open Mj_hypergraph
open Multijoin
open Mj_optimizer
module Legacy = Mj_benchkit.Legacy
module Kernel_bench = Mj_benchkit.Kernel_bench
module Bench_core = Mj_benchkit.Bench_core
module Pool = Mj_pool.Pool
module Json = Mj_obs.Json
module Dbgen = Mj_workload.Dbgen

let qtest name ?(count = 100) gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~name ~count gen prop)

(* ------------------------------------------------------------------ *)
(* Generators                                                           *)
(* ------------------------------------------------------------------ *)

let shape kind n seed =
  match kind with
  | 0 -> Querygraph.chain n
  | 1 -> Querygraph.star n
  | 2 -> Querygraph.cycle (max 3 n)
  | 3 -> Querygraph.clique (min n 8)
  | _ ->
      let rng = Random.State.make [| seed; n |] in
      Querygraph.random ~extra_edge_prob:0.25 ~rng n

(* A universe of up to [max_n] relations plus a nonempty submask; the
   submask sub-hypergraphs exercise the unconnected cases. *)
let gen_universe_mask max_n =
  let open QCheck2.Gen in
  let* kind = int_range 0 4 in
  let* n = int_range 2 max_n in
  let* seed = int_range 0 100_000 in
  let d = shape kind n seed in
  let u = Bitdb.make d in
  let* m = int_range 1 (Bitdb.full u) in
  return (d, m)

let gen_universe max_n =
  QCheck2.Gen.map fst (gen_universe_mask max_n)

let gen_random_db =
  let open QCheck2.Gen in
  let* n = int_range 2 5 in
  let* seed = int_range 0 100_000 in
  let rng = Random.State.make [| seed; n |] in
  let d = Querygraph.random ~extra_edge_prob:0.3 ~rng n in
  return (Dbgen.uniform_db ~rng ~rows:4 ~domain:3 d)

(* The synthetic statistics of the KERNEL bench rows. *)
let oracle_for d =
  Estimate.of_catalog
    (Catalog.synthetic
       (List.mapi
          (fun i s -> (s, 32 + (17 * i mod 41), []))
          (Scheme.Set.elements d)))

let set_list_equal l1 l2 =
  List.length l1 = List.length l2 && List.for_all2 Scheme.Set.equal l1 l2

(* ------------------------------------------------------------------ *)
(* Connectivity vocabulary: kernel vs Set BFS                           *)
(* ------------------------------------------------------------------ *)

let prop_connected =
  qtest "Bitdb.is_connected agrees with the Set BFS on submasks" ~count:150
    (gen_universe_mask 12) (fun (d, m) ->
      let u = Bitdb.make d in
      Bitdb.is_connected u m = Legacy.connected (Bitdb.set_of_mask u m))

let prop_components =
  qtest "Bitdb.components agrees with Set BFS peeling, in order" ~count:150
    (gen_universe_mask 12) (fun (d, m) ->
      let u = Bitdb.make d in
      set_list_equal
        (List.map (Bitdb.set_of_mask u) (Bitdb.components u m))
        (Legacy.components (Bitdb.set_of_mask u m)))

let prop_linked =
  qtest "Bitdb.linked agrees with attribute-universe intersection"
    ~count:150
    QCheck2.Gen.(
      let* d, m1 = gen_universe_mask 12 in
      let u = Bitdb.make d in
      let* m2 = int_range 1 (Bitdb.full u) in
      return (d, m1, m2))
    (fun (d, m1, m2) ->
      let u = Bitdb.make d in
      Bitdb.linked u m1 m2
      = Legacy.hyper_linked (Bitdb.set_of_mask u m1) (Bitdb.set_of_mask u m2))

let prop_connected_subsets =
  qtest "Bitdb.connected_subsets = enumerate-then-filter, same order"
    ~count:40 (gen_universe 10) (fun d ->
      let u = Bitdb.make d in
      set_list_equal
        (List.map (Bitdb.set_of_mask u) (Bitdb.connected_subsets u (Bitdb.full u)))
        (Legacy.connected_subsets d))

let prop_binary_partitions =
  qtest "Bitdb.binary_partitions = anchored Set enumeration, same order"
    ~count:40 (gen_universe 10) (fun d ->
      let u = Bitdb.make d in
      let kp =
        List.map
          (fun (l, r) -> (Bitdb.set_of_mask u l, Bitdb.set_of_mask u r))
          (Bitdb.binary_partitions u (Bitdb.full u))
      in
      let lp = Legacy.binary_partitions d in
      List.length kp = List.length lp
      && List.for_all2
           (fun (l1, r1) (l2, r2) ->
             Scheme.Set.equal l1 l2 && Scheme.Set.equal r1 r2)
           kp lp)

(* ------------------------------------------------------------------ *)
(* DP optima: kernel vs string-memo seed DP                             *)
(* ------------------------------------------------------------------ *)

let subspaces =
  [ Enumerate.All; Enumerate.Linear; Enumerate.Cp_free;
    Enumerate.Linear_cp_free ]

let cost_of = function None -> -1 | Some r -> r.Optimal.cost

let prop_dp_synthetic =
  qtest "optimum costs match the seed DP on every subspace (synthetic τ)"
    ~count:60 (gen_universe 7) (fun d ->
      let oracle = oracle_for d in
      List.for_all
        (fun subspace ->
          cost_of (Legacy.optimum_with_oracle ~subspace ~oracle d)
          = cost_of (Optimal.optimum_with_oracle ~subspace ~oracle d))
        subspaces)

let prop_dp_real =
  qtest "optimum costs match the seed DP on every subspace (real db)"
    ~count:40 gen_random_db (fun db ->
      List.for_all
        (fun subspace ->
          cost_of (Legacy.optimum ~subspace db)
          = cost_of (Optimal.optimum ~subspace db))
        subspaces)

let prop_all_optima =
  qtest "all_optima streams exactly the enumeration-order ties" ~count:40
    gen_random_db (fun db ->
      let d = Database.schemes db in
      let oracle = Cost.cardinality_oracle db in
      List.for_all
        (fun subspace ->
          let reference =
            let costed =
              List.map
                (fun s -> (Cost.tau_oracle oracle s, s))
                (Enumerate.enumerate subspace d)
            in
            match costed with
            | [] -> []
            | _ ->
                let best =
                  List.fold_left (fun acc (c, _) -> min acc c) max_int costed
                in
                List.filter_map
                  (fun (c, s) -> if c = best then Some s else None)
                  costed
          in
          let streamed =
            List.map
              (fun r -> r.Optimal.strategy)
              (Optimal.all_optima ~subspace db)
          in
          List.length reference = List.length streamed
          && List.for_all2
               (fun s1 s2 -> Strategy.to_string s1 = Strategy.to_string s2)
               reference streamed)
        subspaces)

(* ------------------------------------------------------------------ *)
(* Condition checkers: cached mask loops vs Set loops                   *)
(* ------------------------------------------------------------------ *)

let prop_summarize =
  qtest "Conditions.summarize agrees with the Set-loop seed checker"
    ~count:40 gen_random_db (fun db ->
      Legacy.summarize db = Conditions.summarize db)

(* ------------------------------------------------------------------ *)
(* Relation satellite: empty-common natural join                        *)
(* ------------------------------------------------------------------ *)

let gen_disjoint_relations =
  let open QCheck2.Gen in
  let* seed = int_range 0 100_000 in
  let* k1 = int_range 0 5 in
  let* k2 = int_range 0 5 in
  let rng = Random.State.make [| seed; k1; k2 |] in
  let row width = List.init width (fun _ -> Value.int (Random.State.int rng 3)) in
  let rows k width = List.init k (fun _ -> row width) in
  return
    ( Relation.of_rows "AB" (rows k1 2),
      Relation.of_rows "CD" (rows k2 2) )

let prop_join_disjoint =
  qtest "natural_join with no common attributes is the Cartesian product"
    ~count:100 gen_disjoint_relations (fun (r1, r2) ->
      let joined = Relation.natural_join r1 r2 in
      let reference =
        Relation.make
          (Attr.Set.union (Relation.scheme r1) (Relation.scheme r2))
          (Relation.fold
             (fun t1 acc ->
               Relation.fold (fun t2 acc -> Tuple.merge t1 t2 :: acc) r2 acc)
             r1 [])
      in
      Relation.equal joined reference
      && Relation.cardinality joined
         = Relation.cardinality r1 * Relation.cardinality r2)

(* ------------------------------------------------------------------ *)
(* Pool determinism                                                     *)
(* ------------------------------------------------------------------ *)

let prop_pool_deterministic =
  qtest "Pool.init is identical at 1 and 4 domains" ~count:20
    QCheck2.Gen.(int_range 0 100_000)
    (fun seed ->
      let task i =
        let rng = Random.State.make [| seed; i |] in
        List.init 8 (fun _ -> Random.State.int rng 1_000_000)
      in
      Pool.init ~domains:1 16 task = Pool.init ~domains:4 16 task)

(* The pool keeps its helper domains between runs: thousands of runs,
   runs nested inside tasks (which must take other helpers, not wait
   for their own) and a raising task all leave it answering correctly. *)
let test_pool_helpers_reused () =
  let squares n = Array.init n (fun i -> i * i) in
  for _ = 1 to 2000 do
    Alcotest.(check (array int)) "flat run" (squares 8)
      (Pool.init ~domains:2 8 (fun i -> i * i))
  done;
  let nested =
    Pool.init ~domains:2 6 (fun i ->
        Array.fold_left ( + ) 0 (Pool.init ~domains:2 4 (fun j -> (i * 4) + j)))
  in
  Alcotest.(check (array int)) "nested runs"
    (Array.init 6 (fun i -> (16 * i) + 6))
    nested;
  (match Pool.init ~domains:2 8 (fun i -> if i = 5 then failwith "task 5" else i) with
  | exception Failure msg -> Alcotest.(check string) "task exception" "task 5" msg
  | _ -> Alcotest.fail "a raising task must raise");
  Alcotest.(check (array int)) "after a raise" (squares 8)
    (Pool.init ~domains:2 8 (fun i -> i * i))

let test_kernel_bench_deterministic () =
  let report domains =
    Json.to_string
      (Bench_core.deterministic_json (Kernel_bench.run ~domains ~quick:true ()))
  in
  Alcotest.(check string)
    "deterministic projection identical at 1 vs 3 domains" (report 1)
    (report 3)

let test_kernel_bench_rows_agree () =
  let leg = Kernel_bench.run ~domains:1 ~quick:true () in
  Alcotest.(check (list string))
    "no failed check: legacy/kernel values agree on every row" []
    (Bench_core.failures leg);
  let hits =
    Option.bind
      (Json.member "tau_cache" (Bench_core.deterministic_json leg))
      (Json.member "hits")
  in
  Alcotest.(check bool) "cache sees traffic" true
    (match hits with Some (Json.Num h) -> h > 0.0 | _ -> false)

(* ------------------------------------------------------------------ *)
(* Pinned seed: one fixed database with hard-coded expectations, so a
   coordinated drift of Legacy and the kernel (both wrong the same
   way) still trips the suite.                                          *)
(* ------------------------------------------------------------------ *)

let test_pinned_legacy_equivalence () =
  let rng = Random.State.make [| 2026; 91 |] in
  let d = Querygraph.cycle 4 in
  let db = Mj_workload.Dbgen.uniform_db ~rng ~rows:5 ~domain:3 d in
  List.iter
    (fun subspace ->
      let legacy = cost_of (Legacy.optimum ~subspace db) in
      let kernel = cost_of (Optimal.optimum ~subspace db) in
      Alcotest.(check int) "legacy = kernel" legacy kernel;
      Alcotest.(check int) "pinned optimum" 6 kernel)
    subspaces;
  (match Optimal.optimum db with
  | None -> Alcotest.fail "pinned database has no optimum"
  | Some r ->
      Alcotest.(check string)
        "pinned optimum strategy" "(((c0,c1 * c1,c2) * c2,c3) * c0,c3)"
        (Strategy.to_string r.Optimal.strategy);
      Alcotest.(check int) "materialized τ" 6 (Cost.tau db r.Optimal.strategy));
  let s = Conditions.summarize db in
  Alcotest.(check bool) "legacy summary" true (Legacy.summarize db = s);
  Alcotest.(check (list bool))
    "pinned summary (c1, c1', c2, c3, c4)"
    [ true; true; false; false; false ]
    [ s.Conditions.c1; s.Conditions.c1_strict; s.Conditions.c2;
      s.Conditions.c3; s.Conditions.c4 ];
  Alcotest.(check int) "pinned |R_D|" 1
    (Relation.cardinality (Database.join_all db))

let () =
  Alcotest.run "kernel"
    [
      ( "bitmask-vs-set",
        [
          prop_connected;
          prop_components;
          prop_linked;
          prop_connected_subsets;
          prop_binary_partitions;
        ] );
      ( "dp-equivalence",
        [
          prop_dp_synthetic;
          prop_dp_real;
          prop_all_optima;
          Alcotest.test_case "pinned seed" `Quick
            test_pinned_legacy_equivalence;
        ] );
      ("conditions-equivalence", [ prop_summarize ]);
      ("relation-satellites", [ prop_join_disjoint ]);
      ( "pool-determinism",
        [
          prop_pool_deterministic;
          Alcotest.test_case "helper domains reused" `Quick
            test_pool_helpers_reused;
          Alcotest.test_case "kernel bench deterministic json" `Quick
            test_kernel_bench_deterministic;
          Alcotest.test_case "kernel bench rows agree" `Quick
            test_kernel_bench_rows_agree;
        ] );
    ]

(* Benchmark and experiment harness.

   One experiment per reproduced table/figure/claim of the paper (see
   DESIGN.md section 4 and EXPERIMENTS.md).  Running with no arguments
   executes everything; passing experiment ids (EX1 THM2 PERF ...) runs a
   subset.  All randomness is seeded: the output is identical from run to
   run. *)

open Mj_relation
open Mj_hypergraph
open Multijoin
open Mj_optimizer
module Scenarios = Mj_workload.Scenarios
module Dbgen = Mj_workload.Dbgen
module Pool = Mj_pool.Pool
module Frame_bench = Mj_benchkit.Frame_bench
module Par_bench = Mj_benchkit.Par_bench
module Wcoj_bench = Mj_benchkit.Wcoj_bench
module Yann_bench = Mj_benchkit.Yann_bench
module Serve_bench = Mj_benchkit.Serve_bench
module Bench_core = Mj_benchkit.Bench_core
module Engine = Mj_engine.Engine
module Physical = Mj_engine.Physical

(* Set by the --quick flag: trims the bench legs' grids to CI-smoke
   scale. *)
let quick = ref false

(* The process-wide engine configuration, resolved once in [main] from
   the engine flags shared with the mjoin CLI ([Mj_cli.engine_term]),
   with the environment as fallback. *)
let config = ref None

let get_config () =
  match !config with Some c -> c | None -> Engine.Config.of_env ()

let config_domains () = (get_config ()).Engine.Config.domains

let section id title =
  Printf.printf "\n%s\n[%s] %s\n%s\n" (String.make 74 '=') id title
    (String.make 74 '=')

(* Failed paper-experiment checks; any failure makes the run exit 1
   once every requested experiment has printed. *)
let failures = ref 0

let verdict ok =
  if not ok then incr failures;
  if ok then "OK" else "FAIL"

let check name ok = Printf.printf "  %-58s %s\n" name (verdict ok)

let expect name ~expected ~actual =
  Printf.printf "  %-46s expected %-8d got %-8d %s\n" name expected actual
    (verdict (expected = actual))

(* ------------------------------------------------------------------ *)
(* EX1: Example 1 (Section 3)                                           *)
(* ------------------------------------------------------------------ *)

let ex1 () =
  section "EX1" "Example 1: C1 holds, yet the optimum uses a Cartesian product";
  let db = Scenarios.example1 in
  List.iter
    (fun (name, s) ->
      let steps = Cost.step_costs db s in
      Printf.printf "  %-3s %-28s steps %-14s tau = %d\n" name
        (Strategy.to_string s)
        (String.concat "+" (List.map (fun (_, c) -> string_of_int c) steps))
        (Cost.tau db s))
    Scenarios.example1_strategies;
  let tau name = Cost.tau db (List.assoc name Scenarios.example1_strategies) in
  expect "tau(S1)" ~expected:570 ~actual:(tau "S1");
  expect "tau(S2)" ~expected:570 ~actual:(tau "S2");
  expect "tau(S3)" ~expected:549 ~actual:(tau "S3");
  expect "tau(S4)" ~expected:546 ~actual:(tau "S4");
  let summary = Conditions.summarize db in
  check "C1 holds" summary.c1;
  let best = Optimal.optimum_exn db in
  expect "global optimum" ~expected:546 ~actual:best.cost;
  check "optimum uses a Cartesian product" (Strategy.uses_cartesian best.strategy);
  expect "best avoiding Cartesian products"
    ~expected:549
    ~actual:(Optimal.optimum_exn ~subspace:Enumerate.Cp_free db).cost

(* ------------------------------------------------------------------ *)
(* EX2: Example 2 — C1 and C2 are independent                           *)
(* ------------------------------------------------------------------ *)

let ex2 () =
  section "EX2" "Example 2: conditions C1 and C2 are independent";
  let a = Conditions.summarize Scenarios.example2_c1_not_c2 in
  let b = Conditions.summarize Scenarios.example2_c2_not_c1 in
  Printf.printf "  first database  (Example 1's): C1:%b C2:%b\n" a.c1 a.c2;
  Printf.printf "  second database (AB/BC/DE)   : C1:%b C2:%b\n" b.c1 b.c2;
  check "C1 does not imply C2" (a.c1 && not a.c2);
  check "C2 does not imply C1" (b.c2 && not b.c1);
  (* tau(R'1 ⋈ R'2) = 7 as stated *)
  let db = Scenarios.example2_c2_not_c1 in
  let j =
    Relation.natural_join
      (Database.find db (Scheme.of_string "AB"))
      (Database.find db (Scheme.of_string "BC"))
  in
  expect "tau(R'1 x R'2)" ~expected:7 ~actual:(Relation.cardinality j)

(* ------------------------------------------------------------------ *)
(* EX3: Example 3 — Theorem 1's C1' cannot be weakened to C1            *)
(* ------------------------------------------------------------------ *)

let ex3 () =
  section "EX3" "Example 3: an optimal linear strategy may use a CP under C1";
  let db = Scenarios.example3 in
  List.iter
    (fun src ->
      let s = Strategy.of_string src in
      let first = match Cost.step_costs db s with (_, c) :: _ -> c | [] -> 0 in
      Printf.printf "  %-20s intermediate %-4d tau %-4d %s\n" src first
        (Cost.tau db s)
        (if Strategy.uses_cartesian s then "[CP]" else ""))
    [ "(GS * SC) * CL"; "GS * (SC * CL)"; "(GS * CL) * SC" ];
  let optima = Optimal.all_optima db in
  expect "number of tau-optimal strategies" ~expected:3
    ~actual:(List.length optima);
  check "a tau-optimal linear strategy uses a CP"
    (List.exists
       (fun (r : Optimal.result) ->
         Strategy.is_linear r.strategy && Strategy.uses_cartesian r.strategy)
       optima);
  let s = Conditions.summarize db in
  check "C1 holds" s.c1;
  check "C1' fails" (not s.c1_strict)

(* ------------------------------------------------------------------ *)
(* EX4: Example 4 — Theorem 2 needs C1                                  *)
(* ------------------------------------------------------------------ *)

let ex4 () =
  section "EX4" "Example 4: without C1, avoiding CPs misses the optimum";
  let db = Scenarios.example4 in
  List.iter
    (fun (name, s) ->
      Printf.printf "  %-3s %-20s tau = %d\n" name (Strategy.to_string s)
        (Cost.tau db s))
    Scenarios.example4_strategies;
  let tau name = Cost.tau db (List.assoc name Scenarios.example4_strategies) in
  expect "tau(S1)" ~expected:14 ~actual:(tau "S1");
  expect "tau(S2)" ~expected:12 ~actual:(tau "S2");
  expect "tau(S3)" ~expected:11 ~actual:(tau "S3");
  let best = Optimal.optimum_exn db in
  check "S3 (with its CP) is the optimum"
    (best.cost = 11 && Strategy.uses_cartesian best.strategy);
  let s = Conditions.summarize db in
  check "C2 holds" s.c2;
  check "C1 fails" (not s.c1)

(* ------------------------------------------------------------------ *)
(* EX5: Example 5 — Theorem 3 needs C3                                  *)
(* ------------------------------------------------------------------ *)

let ex5 () =
  section "EX5" "Example 5: under C1+C2 only, the unique optimum is bushy";
  let db = Scenarios.example5 in
  let all =
    Enumerate.all (Database.schemes db)
    |> List.map (fun s -> (Cost.tau db s, s))
    |> List.sort compare
  in
  List.iteri
    (fun i (c, s) ->
      if i < 4 then
        Printf.printf "  %d. tau %-4d %s %s\n" (i + 1) c (Strategy.to_string s)
          (if Strategy.is_linear s then "[linear]" else "[bushy]"))
    all;
  let optima = Optimal.all_optima db in
  expect "unique optimum" ~expected:1 ~actual:(List.length optima);
  let best = List.hd optima in
  check "it is (MS * SC) * (CI * ID)"
    (Strategy.equal_commutative best.strategy Scenarios.example5_optimum);
  check "it is bushy and CP-free"
    ((not (Strategy.is_linear best.strategy))
    && not (Strategy.uses_cartesian best.strategy));
  let s = Conditions.summarize db in
  check "C1 and C2 hold" (s.c1 && s.c2);
  check "C3 fails" (not s.c3);
  let ci_id =
    Relation.natural_join
      (Database.find db (Scheme.of_string "CI"))
      (Database.find db (Scheme.of_string "DI"))
  in
  Printf.printf "  tau(CI x ID) = %d > tau(ID) = %d (the C3 violation)\n"
    (Relation.cardinality ci_id)
    (Relation.cardinality (Database.find db (Scheme.of_string "DI")))

(* ------------------------------------------------------------------ *)
(* FIG: the transformations of Figures 1-6                              *)
(* ------------------------------------------------------------------ *)

let fig () =
  section "FIG" "Figures 1-6: pluck, graft and the proof transformations";
  (* Figures 1-2: pluck and graft are inverse, and preserve the result. *)
  let rng = Random.State.make [| 99 |] in
  let d4 = Querygraph.chain 4 in
  let db4 = Dbgen.superkey_db ~rng ~rows:6 ~domain:9 d4 in
  let schemes = Scheme.Set.elements d4 in
  let s0 = Strategy.left_deep schemes in
  let target = Scheme.Set.singleton (List.nth schemes 2) in
  let plucked = Transform.pluck s0 target in
  let back =
    Transform.graft plucked ~above:(Strategy.schemes plucked)
      (Strategy.leaf (List.nth schemes 2))
  in
  check "Fig 1: pluck removes exactly one leaf"
    (Strategy.size plucked = Strategy.size s0 - 1);
  check "Fig 2: grafting it back evaluates the same database"
    (Relation.equal (Cost.eval db4 back) (Database.join_all db4));

  (* Figure 3 / Theorem 1: on a C1'-database, removing a Cartesian
     product from a linear strategy strictly lowers tau. *)
  let with_cp =
    Strategy.left_deep
      [ List.nth schemes 0; List.nth schemes 2; List.nth schemes 1;
        List.nth schemes 3 ]
  in
  check "the constructed linear strategy uses a CP"
    (Strategy.uses_cartesian with_cp);
  let t1 =
    (* Move the CP-offending relation next to the one it links with. *)
    Transform.transfer with_cp
      ~subtree:(Scheme.Set.singleton (List.nth schemes 2))
      ~above:(Scheme.Set.singleton (List.nth schemes 1))
  in
  Printf.printf "  before: %-40s tau = %d\n" (Strategy.to_string with_cp)
    (Cost.tau db4 with_cp);
  Printf.printf "  after : %-40s tau = %d\n" (Strategy.to_string t1)
    (Cost.tau db4 t1);
  check "Fig 3: the transformation strictly lowers tau (C1' held)"
    (Cost.tau db4 t1 < Cost.tau db4 with_cp);

  (* Figures 4-5 / Lemmas 2-3 on Example 1: pulling a component of the
     unconnected child next to the connected child never raises tau. *)
  let db1 = Scenarios.example1 in
  let s = Strategy.of_string "BC * ((AB * DE) * FG)" in
  let s' =
    Transform.transfer s
      ~subtree:(Scheme.Set.of_strings [ "AB" ])
      ~above:(Scheme.Set.of_strings [ "BC" ])
  in
  Printf.printf "  Lemma 2 move: %s (tau %d)  ->  %s (tau %d)\n"
    (Strategy.to_string s) (Cost.tau db1 s) (Strategy.to_string s')
    (Cost.tau db1 s');
  check "Fig 4-5: tau(S') <= tau(S)" (Cost.tau db1 s' <= Cost.tau db1 s);

  (* Figure 6 / Lemma 6: under C3, repeatedly transferring subtrees
     toward one child linearizes an optimal connected strategy without
     changing tau — equivalently, the cheapest connected strategy costs
     exactly as much as the cheapest linear connected one.  The lemma
     says nothing about non-optimal strategies (a transfer may well
     improve those). *)
  let best_connected = Optimal.optimum_exn ~subspace:Enumerate.Cp_free db4 in
  let best_linear_connected =
    Optimal.optimum_exn ~subspace:Enumerate.Linear_cp_free db4
  in
  Printf.printf
    "  Lemma 6: best connected tau = %d, best linear connected tau = %d\n"
    best_connected.cost best_linear_connected.cost;
  check "Fig 6: linearization preserves the connected optimum (C3)"
    (best_connected.cost = best_linear_connected.cost)

(* ------------------------------------------------------------------ *)
(* THM1-3: Monte-Carlo theorem validation per data regime               *)
(* ------------------------------------------------------------------ *)

type tally = {
  mutable applicable : int;
  mutable holds : int;
  mutable refuted : int;
  mutable vacuous_and_fails : int;
}

let fresh_tally () =
  { applicable = 0; holds = 0; refuted = 0; vacuous_and_fails = 0 }

let record tally status conclusion =
  match status with
  | Theorems.Holds ->
      tally.applicable <- tally.applicable + 1;
      tally.holds <- tally.holds + 1
  | Theorems.Refuted ->
      tally.applicable <- tally.applicable + 1;
      tally.refuted <- tally.refuted + 1
  | Theorems.Vacuous _ ->
      if not conclusion then
        tally.vacuous_and_fails <- tally.vacuous_and_fails + 1

let theorem_experiment id which =
  section id
    (Printf.sprintf
       "Theorem %d on generated databases (applicable => conclusion)" which);
  Printf.printf "  %-10s %-8s %-11s %-6s %-8s %-22s\n" "regime" "samples"
    "applicable" "holds" "refuted" "hyp-fails & concl-fails";
  let samples = 30 in
  List.iter
    (fun (regime_name, gen) ->
      let tally = fresh_tally () in
      (* Trials fan out over domains; each derives everything from its
         own seed and results merge in seed order, so the tally (and
         the printed table) is identical at any domain count. *)
      let outcomes =
        Pool.init samples (fun i ->
            let seed = i + 1 in
            let rng = Random.State.make [| seed; which |] in
            let n = 4 + (seed mod 2) in
            let d = Querygraph.random ~extra_edge_prob:0.3 ~rng n in
            let db : Database.t = gen ~rng d in
            let r = Theorems.verify db in
            match which with
            | 1 -> (r.theorem1, r.theorem1_conclusion)
            | 2 -> (r.theorem2, r.theorem2_conclusion)
            | _ -> (r.theorem3, r.theorem3_conclusion))
      in
      Array.iter
        (fun (status, conclusion) -> record tally status conclusion)
        outcomes;
      Printf.printf "  %-10s %-8d %-11d %-6d %-8d %-22d\n" regime_name samples
        tally.applicable tally.holds tally.refuted tally.vacuous_and_fails;
      if tally.refuted > 0 then check "NO REFUTATIONS" false)
    [
      ("superkey", fun ~rng d -> Dbgen.superkey_db ~rng ~rows:5 ~domain:9 d);
      ("uniform", fun ~rng d -> Dbgen.uniform_db ~rng ~rows:5 ~domain:3 d);
      ("skewed", fun ~rng d -> Dbgen.skewed_db ~rng ~rows:5 ~domain:4 ~skew:1.2 d);
    ];
  print_endline
    "  (refuted = 0 everywhere is the reproduction of the theorem; the\n\
    \   last column shows the conclusion really failing once hypotheses do)"

(* ------------------------------------------------------------------ *)
(* SK: Section 4's semantic sufficient conditions                       *)
(* ------------------------------------------------------------------ *)

let sk () =
  section "SK" "Section 4: superkeys give C3; lossless joins give C2";
  (* Superkey joins => C3, on injective data over several shapes. *)
  let shapes = [ ("chain", Querygraph.chain 4); ("star", Querygraph.star 4) ] in
  List.iter
    (fun (name, d) ->
      let ok = ref true in
      for seed = 1 to 20 do
        let rng = Random.State.make [| seed; 77 |] in
        let db = Dbgen.superkey_db ~rng ~rows:5 ~domain:9 d in
        if not (Conditions.holds_c3 db) then ok := false
      done;
      check (Printf.sprintf "injective %s databases all satisfy C3" name) !ok)
    shapes;
  (* Declared FDs: the chase certifies the lossless-join hypothesis, and
     C2 follows on data satisfying those FDs (the star schema). *)
  let d = Scheme.Set.of_strings [ "OCPS"; "CN"; "PQ"; "ST" ] in
  let fds = Fd.of_strings [ ("C", "N"); ("P", "Q"); ("S", "T"); ("O", "CPS") ] in
  check "star schema: no nontrivial lossy joins (chase)"
    (Semantic.no_nontrivial_lossy_joins fds d);
  check "star schema: joins NOT all on superkeys"
    (not (Semantic.all_joins_on_superkeys fds d));
  let sales =
    Relation.of_rows "OCPS"
      (List.init 12 (fun o ->
           [ Value.int o; Value.int (o mod 3); Value.int (o mod 4);
             Value.int (o mod 2) ]))
  in
  let db =
    Database.of_relations
      [
        sales;
        Relation.of_rows "CN" (List.init 3 (fun c -> [ Value.int c; Value.int c ]));
        Relation.of_rows "PQ" (List.init 4 (fun p -> [ Value.int p; Value.int p ]));
        Relation.of_rows "ST" (List.init 2 (fun s -> [ Value.int s; Value.int s ]));
      ]
  in
  let summary = Conditions.summarize db in
  check "its data satisfies C2" summary.c2;
  check "and fails C3 (fact side not keyed)" (not summary.c3)

(* ------------------------------------------------------------------ *)
(* SPACE: strategy-space sizes                                          *)
(* ------------------------------------------------------------------ *)

let space () =
  section "SPACE" "Strategy-space sizes per query shape (Section 1 / ref [14])";
  List.iter
    (fun (name, shape, sizes) ->
      Printf.printf "  %s:\n" name;
      Printf.printf "  %-4s %-12s %-10s %-9s %-15s %-10s\n" "n" "all" "linear"
        "cp-free" "linear-cp-free" "ccp-pairs";
      List.iter
        (fun (row : Search_space.row) ->
          Printf.printf "  %-4d %-12d %-10d %-9d %-15d %-10d\n" row.n
            row.all_strategies row.linear_strategies row.cp_free
            row.linear_cp_free row.ccp_pairs)
        (Search_space.table ~shape sizes))
    [
      ("chain", Querygraph.chain, [ 2; 3; 4; 5; 6; 7; 8; 9; 10 ]);
      ("star", Querygraph.star, [ 2; 3; 4; 5; 6; 7; 8; 9; 10 ]);
      ("cycle", Querygraph.cycle, [ 3; 4; 5; 6; 7; 8; 9; 10 ]);
      ("clique", Querygraph.clique, [ 2; 3; 4; 5; 6; 7; 8 ]);
    ];
  (* Closed forms vs measurement. *)
  check "chain ccp-pairs match (n^3 - n)/6"
    (List.for_all
       (fun n ->
         Search_space.measured_pairs (Querygraph.chain n)
         = Search_space.chain_pairs n)
       [ 2; 4; 6; 8; 10 ]);
  check "star ccp-pairs match (n-1) 2^(n-2)"
    (List.for_all
       (fun n ->
         Search_space.measured_pairs (Querygraph.star n)
         = Search_space.star_pairs n)
       [ 2; 4; 6; 8; 10 ]);
  check "clique ccp-pairs match (3^n - 2^(n+1) + 1)/2"
    (List.for_all
       (fun n ->
         Search_space.measured_pairs (Querygraph.clique n)
         = Search_space.clique_pairs n)
       [ 2; 4; 6; 8 ]);
  check "paper's 15 strategies for four relations" (Enumerate.count_all 4 = 15);
  check "paper's 12 linear strategies for four relations"
    (Enumerate.count_linear 4 = 12)

(* ------------------------------------------------------------------ *)
(* GAMMA: best linear vs best bushy, per regime                         *)
(* ------------------------------------------------------------------ *)

let gamma () =
  section "GAMMA"
    "Cheapest linear vs cheapest bushy strategy (actual tau, exact DP)";
  Printf.printf "  %-8s %-10s %-9s %-11s %-11s %-9s\n" "shape" "regime"
    "samples" "mean ratio" "max ratio" "linear=opt";
  let samples = 15 in
  List.iter
    (fun (shape_name, shape) ->
      List.iter
        (fun (regime_name, gen) ->
          (* Seed-per-trial fan-out; the prepend fold rebuilds the exact
             descending-seed list the sequential loop accumulated, so the
             float summation order (and the output) is unchanged. *)
          let results =
            Pool.init samples (fun i ->
                let seed = i + 1 in
                let rng =
                  Random.State.make [| seed; 7; Hashtbl.hash shape_name |]
                in
                let db : Database.t = gen ~rng (shape 6) in
                let best_all = (Optimal.optimum_exn db).cost in
                let best_linear =
                  (Optimal.optimum_exn ~subspace:Enumerate.Linear db).cost
                in
                let ratio =
                  if best_all = 0 then 1.0
                  else float_of_int best_linear /. float_of_int best_all
                in
                (ratio, best_linear = best_all))
          in
          let ratios = Array.fold_left (fun acc (r, _) -> r :: acc) [] results in
          let optimal =
            Array.fold_left (fun n (_, hit) -> if hit then n + 1 else n) 0 results
          in
          let mean = List.fold_left ( +. ) 0.0 ratios /. float_of_int samples in
          let worst = List.fold_left Float.max 1.0 ratios in
          Printf.printf "  %-8s %-10s %-9d %-11.3f %-11.3f %d/%d\n" shape_name
            regime_name samples mean worst optimal samples)
        [
          ("superkey", fun ~rng d -> Dbgen.superkey_db ~rng ~rows:6 ~domain:10 d);
          ("uniform", fun ~rng d -> Dbgen.uniform_db ~rng ~rows:6 ~domain:3 d);
          ( "skewed",
            fun ~rng d -> Dbgen.skewed_db ~rng ~rows:6 ~domain:4 ~skew:1.5 d );
        ])
    [
      ("chain", Querygraph.chain);
      ("cycle", Querygraph.cycle);
      ("star", Querygraph.star);
    ];
  print_endline
    "  (under the superkey regime the ratio is 1 — Theorem 3; under skew\n\
    \   the linear-only optimizer can lose, the GAMMA observation [9])"

(* ------------------------------------------------------------------ *)
(* MONO: monotone strategies (Section 5)                                *)
(* ------------------------------------------------------------------ *)

let mono () =
  section "MONO" "Section 5: monotone decreasing / increasing strategies";
  let samples = 15 in
  let dec = ref 0 in
  for seed = 1 to samples do
    let rng = Random.State.make [| seed; 31 |] in
    let d = Querygraph.random ~extra_edge_prob:0.3 ~rng 5 in
    let db = Dbgen.superkey_db ~rng ~rows:5 ~domain:9 d in
    if Monotone.exists_optimal_linear_monotone_decreasing db then incr dec
  done;
  Printf.printf
    "  superkey (C3) databases with a monotone-decreasing linear optimum: \
     %d/%d\n"
    !dec samples;
  check "all of them" (!dec = samples);
  let inc = ref 0 in
  for seed = 1 to samples do
    let rng = Random.State.make [| seed; 32 |] in
    let db =
      Dbgen.consistent_acyclic_db ~rng ~rows:5 ~domain:4 (Querygraph.chain 4)
    in
    if Monotone.all_cp_free_strategies_monotone_increasing db then incr inc
  done;
  Printf.printf
    "  gamma-acyclic consistent databases where every CP-free strategy is\n\
    \  monotone increasing (C4): %d/%d\n"
    !inc samples;
  check "all of them" (!inc = samples)

(* ------------------------------------------------------------------ *)
(* SETOP: union and intersection strategies (Section 5)                 *)
(* ------------------------------------------------------------------ *)

let setop () =
  section "SETOP" "Section 5: intersection satisfies C3; union experiments";
  let samples = 200 in
  let linear_optimal = ref 0 in
  let ascending_optimal = ref 0 in
  let union_linear_optimal = ref 0 in
  for seed = 1 to samples do
    let rng = Random.State.make [| seed; 71 |] in
    let k = 3 + Random.State.int rng 3 in
    let family =
      Setops.of_ints
        (List.init k (fun i ->
             let size = 1 + Random.State.int rng 9 in
             ( Printf.sprintf "X%d" i,
               List.init size (fun _ -> Random.State.int rng 12) )))
    in
    let _, best = Setops.optimum Setops.Inter family in
    let _, best_linear = Setops.optimum_linear Setops.Inter family in
    if best = best_linear then incr linear_optimal;
    if Setops.tau Setops.Inter family (Setops.ascending_linear family) = best
    then incr ascending_optimal;
    let _, u_best = Setops.optimum Setops.Union family in
    let _, u_linear = Setops.optimum_linear Setops.Union family in
    if u_best = u_linear then incr union_linear_optimal
  done;
  Printf.printf "  intersection: best linear = global optimum    %d/%d\n"
    !linear_optimal samples;
  check "Theorem 3 for intersections (100%)" (!linear_optimal = samples);
  Printf.printf "  intersection: ascending-size heuristic optimal %d/%d\n"
    !ascending_optimal samples;
  Printf.printf "  union: best linear = global optimum           %d/%d\n"
    !union_linear_optimal samples;
  check "union: linear orders are NOT always optimal"
    (!union_linear_optimal < samples);
  (* A minimal witness: overlapping sets must be united with each other
     first, which a linear spine cannot arrange for two disjoint pairs. *)
  let family =
    Setops.of_ints
      [ ("A", [ 4 ]); ("B", [ 1 ]); ("C", [ 2; 5 ]); ("D", [ 2; 3; 5 ]) ]
  in
  let _, u_best = Setops.optimum Setops.Union family in
  let _, u_lin = Setops.optimum_linear Setops.Union family in
  Printf.printf
    "  witness A={4} B={1} C={2,5} D={2,3,5}: bushy optimum %d, best linear %d\n"
    u_best u_lin;
  check "witness separates the spaces" (u_best = 10 && u_lin = 11);
  print_endline
    "  (this answers the paper's closing union question negatively: C4\n\
    \   alone, unlike C3, does not yield a Theorem 3 — the optimum union\n\
    \   tree can be properly bushy, uniting overlapping sets pairwise)"

(* ------------------------------------------------------------------ *)
(* YANN: is Yannakakis's strategy tau-optimal? (Section 5)              *)
(* ------------------------------------------------------------------ *)

let yann () =
  section "YANN" "Section 5: tau of Yannakakis's strategy vs the optimum";
  Printf.printf "  %-8s %-4s %-9s %-12s %-10s\n" "shape" "n" "samples"
    "mean ratio" "optimal";
  let samples = 15 in
  List.iter
    (fun (shape_name, shape, n) ->
      let ratios = ref [] in
      let opt = ref 0 in
      for seed = 1 to samples do
        let rng = Random.State.make [| seed; 81 |] in
        let db = Dbgen.uniform_db ~rng ~rows:6 ~domain:3 (shape n) in
        let reduced = Consistency.semijoin_reduce db in
        let yann_tau =
          match Gyo.rooted_ear_tree (Database.schemes db) with
          | None -> assert false (* chains and stars are acyclic *)
          | Some rt ->
              let _, stats =
                Engine.execute_plan (get_config ()) db
                  (Physical.Semijoin_program rt)
              in
              stats.Engine.tuples_generated
        in
        let best = (Optimal.optimum_exn reduced).cost in
        let ratio =
          if best = 0 then 1.0 else float_of_int yann_tau /. float_of_int best
        in
        ratios := ratio :: !ratios;
        if yann_tau = best then incr opt
      done;
      let mean = List.fold_left ( +. ) 0.0 !ratios /. float_of_int samples in
      Printf.printf "  %-8s %-4d %-9d %-12.3f %d/%d\n" shape_name n samples
        mean !opt samples)
    [
      ("chain", Querygraph.chain, 4);
      ("chain", Querygraph.chain, 6);
      ("star", Querygraph.star, 5);
    ];
  print_endline
    "  (ratio 1.000 would answer the open question positively on these\n\
    \   populations; ratios above 1 show Yannakakis's order is lossless\n\
    \   but not always tau-optimal)";
  print_newline ();
  print_endline
    "  Gated leg: semijoin program vs best binary plan on planted\n\
    \  dangling-star workloads (bit-identical, engine-certified, top-k)";
  Bench_core.report (Yann_bench.run ~quick:!quick ())

(* ------------------------------------------------------------------ *)
(* EST: does estimate-driven optimization find good plans?              *)
(* ------------------------------------------------------------------ *)

let est () =
  section "EST"
    "Plan regret of estimate-driven DP vs the true tau-optimum";
  Printf.printf "  %-8s %-10s %-9s %-22s %-22s\n" "shape" "regime" "samples"
    "uniform: mean/max/opt" "MCV(8): mean/max/opt";
  let samples = 15 in
  let run_estimator db d make_oracle =
    let oracle = make_oracle db in
    let chosen =
      match Dpsize.plan ~allow_cp:true ~oracle d with
      | Some r -> r.Optimal.strategy
      | None -> assert false
    in
    let opt = (Optimal.optimum_exn db).cost in
    let actual = Cost.tau db chosen in
    let regret =
      if opt = 0 then 1.0 else float_of_int actual /. float_of_int opt
    in
    (regret, actual = opt)
  in
  List.iter
    (fun (shape_name, shape) ->
      List.iter
        (fun (regime_name, gen) ->
          let summarize make_oracle =
            (* Same fan-out/merge discipline as GAMMA: per-seed tasks,
               results folded back in the sequential loop's order. *)
            let results =
              Pool.init samples (fun i ->
                  let seed = i + 1 in
                  let rng =
                    Random.State.make [| seed; 9; Hashtbl.hash shape_name |]
                  in
                  let d = shape 6 in
                  let db : Database.t = gen ~rng d in
                  run_estimator db d make_oracle)
            in
            let regrets =
              Array.fold_left (fun acc (r, _) -> r :: acc) [] results
            in
            let hits =
              Array.fold_left (fun n (_, h) -> if h then n + 1 else n) 0 results
            in
            let mean =
              List.fold_left ( +. ) 0.0 regrets /. float_of_int samples
            in
            let worst = List.fold_left Float.max 1.0 regrets in
            Printf.sprintf "%.3f/%.3f/%d" mean worst hits
          in
          let uniform_cell =
            summarize (fun db -> Estimate.of_catalog (Catalog.of_database db))
          in
          let mcv_cell = summarize (fun db -> Estimate.of_database_mcv ~k:8 db) in
          Printf.printf "  %-8s %-10s %-9d %-22s %-22s\n" shape_name regime_name
            samples uniform_cell mcv_cell)
        [
          ("superkey", fun ~rng d -> Dbgen.superkey_db ~rng ~rows:6 ~domain:10 d);
          ("uniform", fun ~rng d -> Dbgen.uniform_db ~rng ~rows:6 ~domain:3 d);
          ( "skewed",
            fun ~rng d -> Dbgen.skewed_db ~rng ~rows:6 ~domain:4 ~skew:1.5 d );
        ])
    [ ("chain", Querygraph.chain); ("cycle", Querygraph.cycle) ];
  print_endline
    "  (cells are mean regret / max regret / runs hitting the optimum.\n\
    \   The uniformity assumption the paper criticises [4] cuts both\n\
    \   ways — it underestimates skewed hot-value joins and overestimates\n\
    \   joins of random injective columns — so uniform-statistics plans\n\
    \   run >2x off the true optimum even when Theorem 3 guarantees a\n\
    \   linear plan IS optimal.  End-biased MCV statistics shrink but do\n\
    \   not close the gap: the case for schema-level guarantees)"

(* ------------------------------------------------------------------ *)
(* RAND: randomized search vs exact DP                                  *)
(* ------------------------------------------------------------------ *)

let rand () =
  section "RAND"
    "Iterative improvement / simulated annealing vs exact DP (est. cost)";
  Printf.printf "  %-8s %-9s %-14s %-14s %-12s\n" "query" "samples"
    "II mean ratio" "SA mean ratio" "II optimal";
  let samples = 10 in
  List.iter
    (fun (name, d) ->
      let ii_ratios = ref [] and sa_ratios = ref [] and ii_hits = ref 0 in
      for seed = 1 to samples do
        let rng = Random.State.make [| seed; 10 |] in
        let cat =
          Catalog.synthetic
            (List.map
               (fun s -> (s, 1 lsl (3 + Random.State.int rng 5), []))
               (Scheme.Set.elements d))
        in
        let oracle = Estimate.of_catalog cat in
        let opt =
          match Optimal.optimum_with_oracle ~oracle d with
          | Some r -> r.Optimal.cost
          | None -> assert false
        in
        let ii =
          Random_search.iterative_improvement ~rng ~oracle ~restarts:8 d
        in
        let sa =
          Random_search.simulated_annealing ~rng ~oracle ~cooling:0.85
            ~steps_per_temperature:15 d
        in
        let ratio c = if opt = 0 then 1.0 else float_of_int c /. float_of_int opt in
        ii_ratios := ratio ii.Optimal.cost :: !ii_ratios;
        sa_ratios := ratio sa.Optimal.cost :: !sa_ratios;
        if ii.Optimal.cost = opt then incr ii_hits
      done;
      let mean rs = List.fold_left ( +. ) 0.0 !rs /. float_of_int samples in
      Printf.printf "  %-8s %-9d %-14.3f %-14.3f %d/%d\n" name samples
        (mean ii_ratios) (mean sa_ratios) !ii_hits samples)
    [
      ("chain8", Querygraph.chain 8);
      ("cycle8", Querygraph.cycle 8);
      ("clique7", Querygraph.clique 7);
    ];
  print_endline
    "  (the Swami [21,22] setting: local search trades a small cost gap\n\
    \   for polynomial time on queries where DP is infeasible)"

(* ------------------------------------------------------------------ *)
(* PIPE: pipelining linear strategies (Section 1's motivation)          *)
(* ------------------------------------------------------------------ *)

let pipe () =
  section "PIPE"
    "Pipelined vs materializing execution of linear strategies";
  let module Exec = Mj_engine.Exec in
  let module Physical = Mj_engine.Physical in
  (* Example 1's S1: the 70-tuple intermediate never materializes. *)
  let db = Scenarios.example1 in
  let s = List.assoc "S1" Scenarios.example1_strategies in
  let _, pstats = Exec.execute_pipelined db s in
  let _, mstats = Exec.execute db (Physical.of_strategy s) in
  Printf.printf
    "  Example 1 S1: stage outputs %s, pipeline peak buffer %d,\n\
    \  materializing peak %d\n"
    (String.concat "+" (List.map string_of_int pstats.Exec.emitted_per_stage))
    pstats.Exec.peak_buffer mstats.Exec.max_materialized;
  check "pipeline peak = largest base relation (7)"
    (pstats.Exec.peak_buffer = 7);
  check "materializing engine must hold the 490-tuple result"
    (mstats.Exec.max_materialized >= 490);
  check "both count tau tuples generated"
    (List.fold_left ( + ) 0 pstats.Exec.emitted_per_stage
     = mstats.Exec.tuples_generated
    && mstats.Exec.tuples_generated = Cost.tau db s);
  (* Generated chains: the gap grows with the intermediate blowup. *)
  Printf.printf "  %-10s %-18s %-18s\n" "chain n" "pipeline peak"
    "materializing peak";
  List.iter
    (fun n ->
      let rng = Random.State.make [| n; 12 |] in
      let db =
        Dbgen.skewed_db ~rng ~rows:12 ~domain:4 ~skew:1.0 (Querygraph.chain n)
      in
      let order = Scheme.Set.elements (Database.schemes db) in
      let s = Strategy.left_deep order in
      let _, p = Exec.execute_pipelined db s in
      let _, m = Exec.execute db (Physical.of_strategy s) in
      Printf.printf "  %-10d %-18d %-18d\n" n p.Exec.peak_buffer
        m.Exec.max_materialized)
    [ 3; 4; 5 ]

(* ------------------------------------------------------------------ *)
(* LEM: the lemmas and Theorem 2's proof, executed                      *)
(* ------------------------------------------------------------------ *)

let lem () =
  section "LEM" "Lemmas 1-4 and Theorem 2's construction, run as code";
  (* Lemma 1 on Example 1 (which satisfies C1). *)
  check "Lemma 1 extension holds on Example 1 (C1 database)"
    (Lemmas.lemma1_holds Scenarios.example1);
  (* Lemma 2's move on Example 1. *)
  let db = Scenarios.example1 in
  let s = Strategy.of_string "BC * ((AB * DE) * FG)" in
  (match Lemmas.lemma2_transform db s with
  | Some m ->
      Printf.printf
        "  Lemma 2: %s (tau %d, comp-sum %d)\n       ->  %s (tau %d, comp-sum %d)\n"
        (Strategy.to_string m.before) m.tau_before m.comp_sum_before
        (Strategy.to_string m.after) m.tau_after m.comp_sum_after;
      check "tau does not increase; component sum drops"
        (m.tau_after <= m.tau_before && m.comp_sum_after < m.comp_sum_before)
  | None -> check "lemma 2 configuration matched" false);
  (* Theorem 2 constructively, on C3-by-construction databases: start
     from the true optimum (which may use CPs on other databases), apply
     the proof's moves, land on an equally cheap CP-free strategy. *)
  let samples = 20 in
  let ok = ref 0 in
  for seed = 1 to samples do
    let rng = Random.State.make [| seed; 16 |] in
    let d = Querygraph.random ~extra_edge_prob:0.3 ~rng 5 in
    let db = Dbgen.superkey_db ~rng ~rows:5 ~domain:9 d in
    let best = Optimal.optimum_exn db in
    let normalized = Lemmas.to_cp_free db best.Optimal.strategy in
    if
      Strategy.avoids_cartesian normalized
      && Cost.tau db normalized = best.Optimal.cost
    then incr ok
  done;
  Printf.printf
    "  Theorem 2 construction on %d superkey databases: CP-free with\n\
    \  unchanged tau in %d/%d cases\n"
    samples !ok samples;
  check "all of them" (!ok = samples);
  (* And starting from arbitrary (non-optimal) strategies, the
     construction never increases tau when C1+C2 hold. *)
  let ok2 = ref 0 in
  for seed = 1 to samples do
    let rng = Random.State.make [| seed; 17 |] in
    let d = Querygraph.random ~extra_edge_prob:0.3 ~rng 5 in
    let db = Dbgen.superkey_db ~rng ~rows:5 ~domain:9 d in
    let s0 = Enumerate.random_strategy ~rng d in
    let s1 = Lemmas.to_cp_free db s0 in
    if Strategy.avoids_cartesian s1 && Cost.tau db s1 <= Cost.tau db s0 then
      incr ok2
  done;
  Printf.printf
    "  from random starting strategies: CP-free, tau not increased in %d/%d\n"
    !ok2 samples;
  check "all of them " (!ok2 = samples)

(* ------------------------------------------------------------------ *)
(* COST: robustness of tau-optimality across cost models                *)
(* ------------------------------------------------------------------ *)

let cost_models () =
  section "COST"
    "Is the tau-optimal strategy optimal under detailed cost models too?";
  let models =
    [ Costmodel.Cout_inclusive; Costmodel.Nested_loop_io 4; Costmodel.Hash_cpu ]
  in
  Printf.printf "  %-10s %-10s" "shape" "regime";
  List.iter (fun m -> Printf.printf " %-12s" (Costmodel.name m)) models;
  print_newline ();
  let samples = 12 in
  List.iter
    (fun (shape_name, shape) ->
      List.iter
        (fun (regime_name, gen) ->
          let agree = List.map (fun m -> (m, ref 0)) models in
          for seed = 1 to samples do
            let rng =
              Random.State.make [| seed; 13; Hashtbl.hash shape_name |]
            in
            let db : Database.t = gen ~rng (shape 6) in
            let d = Database.schemes db in
            let oracle = Cost.cardinality_oracle db in
            let tau_best = Optimal.optimum_exn db in
            List.iter
              (fun (m, hits) ->
                match Costmodel.optimum ~model:m ~oracle d with
                | Some model_best ->
                    (* tau's winner is model-optimal iff its model cost
                       matches the model optimum. *)
                    if
                      Costmodel.strategy_cost m oracle tau_best.Optimal.strategy
                      = model_best.Optimal.cost
                    then incr hits
                | None -> ())
              agree
          done;
          Printf.printf "  %-10s %-10s" shape_name regime_name;
          List.iter
            (fun (_, hits) -> Printf.printf " %-12s" (Printf.sprintf "%d/%d" !hits samples))
            agree;
          print_newline ())
        [
          ("superkey", fun ~rng d -> Dbgen.superkey_db ~rng ~rows:6 ~domain:10 d);
          ("skewed", fun ~rng d -> Dbgen.skewed_db ~rng ~rows:6 ~domain:4 ~skew:1.5 d);
        ])
    [ ("chain", Querygraph.chain); ("cycle", Querygraph.cycle) ];
  print_endline
    "  (how often the tau winner stays optimal when steps also charge for\n\
    \   inputs or pages — the Section 1 robustness question quantified)"

(* ------------------------------------------------------------------ *)
(* C4JT: Section 5's alpha-acyclic C4 with join-tree connectedness      *)
(* ------------------------------------------------------------------ *)

let c4jt () =
  section "C4JT"
    "alpha-acyclic + pairwise consistent => C4 (join-tree connectedness)";
  let samples = 12 in
  List.iter
    (fun (name, shape) ->
      let holds = ref 0 in
      for seed = 1 to samples do
        let rng = Random.State.make [| seed; 14 |] in
        let db = Dbgen.consistent_acyclic_db ~rng ~rows:5 ~domain:4 (shape 5) in
        if Conditions_jt.holds_c4 db then incr holds
      done;
      Printf.printf "  %-8s consistent databases satisfying C4 (jt): %d/%d\n"
        name !holds samples;
      check (name ^ ": all of them") (!holds = samples))
    [ ("chain", Querygraph.chain); ("star", Querygraph.star) ];
  (* Without consistency the condition genuinely fails on some
     databases: dangling tuples let a join shrink below its inputs. *)
  let violating = ref 0 in
  for seed = 1 to samples do
    let rng = Random.State.make [| seed; 15 |] in
    let raw = Dbgen.uniform_db ~rng ~rows:4 ~domain:6 (Querygraph.chain 4) in
    if not (Conditions_jt.holds_c4 raw) then incr violating
  done;
  Printf.printf "  unreduced (possibly inconsistent) databases violating C4: %d/%d\n"
    !violating samples;
  check "consistency is doing real work (some raw database violates)"
    (!violating > 0)

(* ------------------------------------------------------------------ *)
(* CASE: the supply-chain snowflake end to end                          *)
(* ------------------------------------------------------------------ *)

let case () =
  section "CASE" "Supply-chain snowflake: FK joins in a realistic shape";
  let db = Scenarios.supply_chain in
  let fds = Scenarios.supply_chain_fds in
  let d = Database.schemes db in
  Printf.printf "  %s\n" (Format.asprintf "%a" Database.pp_brief db);
  let summary = Conditions.summarize db in
  Printf.printf "  conditions: %s\n"
    (Format.asprintf "%a" Conditions.pp_summary summary);
  check "C2 holds (every join on the referenced key)" summary.c2;
  check "semantic certificate: no nontrivial lossy joins (chase)"
    (Semantic.no_nontrivial_lossy_joins fds d);
  check "an Osborn (superkey-step) strategy exists"
    (Extension.find_osborn_strategy fds d <> None);
  (match Extension.find_osborn_strategy fds d with
  | Some s ->
      Printf.printf "  Osborn strategy: %s (tau %d)\n" (Strategy.to_string s)
        (Cost.tau db s)
  | None -> ());
  let best = Optimal.optimum_exn db in
  let best_lcf = Optimal.optimum ~subspace:Enumerate.Linear_cp_free db in
  Printf.printf "  exact optimum: tau %d with %s\n" best.cost
    (Strategy.to_string best.strategy);
  (match best_lcf with
  | Some r -> Printf.printf "  best linear CP-free: tau %d\n" r.cost
  | None -> ());
  (* Estimates find a good plan here: FK statistics are the friendly
     case for the uniform estimator. *)
  let est = Estimate.of_catalog (Catalog.of_database db) in
  (match Dpccp.plan ~oracle:est d with
  | Some r ->
      Printf.printf "  DPccp (estimates): actual tau %d\n"
        (Cost.tau db r.Optimal.strategy)
  | None -> ());
  check "theorems never refuted"
    (let r = Theorems.verify db in
     r.theorem1 <> Theorems.Refuted
     && r.theorem2 <> Theorems.Refuted
     && r.theorem3 <> Theorems.Refuted)

(* ------------------------------------------------------------------ *)
(* LOSS: lossless strategies (Section 5's closing question)             *)
(* ------------------------------------------------------------------ *)

let loss () =
  section "LOSS" "Are lossless strategies tau-optimal? (Section 5)";
  (* Supply chain: keys declared, so lossless strategies exist. *)
  let db = Scenarios.supply_chain in
  let fds = Scenarios.supply_chain_fds in
  (match Lossless.gap_to_optimum fds db with
  | Some (best, opt) ->
      Printf.printf
        "  supply chain: best lossless tau = %d, global optimum = %d\n" best
        opt;
      check "lossless strategies reach the optimum here" (best = opt)
  | None -> check "lossless strategies exist" false);
  (* Superkey databases: every linked step is lossless, so the lossless
     optimum should coincide with the global optimum (Theorem 3's
     regime). *)
  let samples = 12 in
  let hit = ref 0 in
  for seed = 1 to samples do
    let rng = Random.State.make [| seed; 19 |] in
    let d = Querygraph.chain 4 in
    let db = Dbgen.superkey_db ~rng ~rows:5 ~domain:9 d in
    let fds =
      List.concat_map
        (fun scheme ->
          List.map
            (fun a -> Fd.fd (Mj_relation.Attr.Set.singleton a) scheme)
            (Mj_relation.Attr.Set.elements scheme))
        (Scheme.Set.elements d)
    in
    match Lossless.gap_to_optimum fds db with
    | Some (best, opt) when best = opt -> incr hit
    | _ -> ()
  done;
  Printf.printf
    "  superkey chains where the lossless optimum = global optimum: %d/%d\n"
    !hit samples;
  check "all of them" (!hit = samples);
  (* Without dependencies, no step can be proven lossless. *)
  check "no FDs: no lossless strategy"
    (Lossless.best_lossless [] Scenarios.example4 = None)

(* ------------------------------------------------------------------ *)
(* MAKESPAN: makespan under parallel evaluation (refs [9], [16])        *)
(* ------------------------------------------------------------------ *)

let makespan () =
  section "MAKESPAN"
    "Total work (tau) vs critical path (makespan) under parallelism";
  let module Parallel = Mj_engine.Parallel in
  Printf.printf "  %-8s %-10s %-24s %-24s\n" "shape" "regime"
    "linear-opt: tau/makespan" "makespan-opt: tau/makespan";
  let samples = 12 in
  List.iter
    (fun (shape_name, shape) ->
      List.iter
        (fun (regime_name, gen) ->
          let acc = Array.make 4 0 in
          for seed = 1 to samples do
            let rng =
              Random.State.make [| seed; 18; Hashtbl.hash shape_name |]
            in
            let db : Database.t = gen ~rng (shape 6) in
            let d = Database.schemes db in
            let oracle = Cost.cardinality_oracle db in
            let linear_opt =
              Option.get
                (Optimal.optimum_with_oracle ~subspace:Enumerate.Linear ~oracle d)
            in
            let mk_opt =
              Option.get (Parallel.optimum_makespan ~oracle d)
            in
            acc.(0) <- acc.(0) + linear_opt.Optimal.cost;
            acc.(1) <- acc.(1) + Parallel.makespan_oracle oracle linear_opt.Optimal.strategy;
            acc.(2) <- acc.(2) + Cost.tau_oracle oracle mk_opt.Optimal.strategy;
            acc.(3) <- acc.(3) + mk_opt.Optimal.cost
          done;
          Printf.printf "  %-8s %-10s %-24s %-24s\n" shape_name regime_name
            (Printf.sprintf "%d / %d" (acc.(0) / samples) (acc.(1) / samples))
            (Printf.sprintf "%d / %d" (acc.(2) / samples) (acc.(3) / samples)))
        [
          ("superkey", fun ~rng d -> Dbgen.superkey_db ~rng ~rows:6 ~domain:10 d);
          ( "skewed",
            fun ~rng d -> Dbgen.skewed_db ~rng ~rows:6 ~domain:4 ~skew:1.5 d );
        ])
    [ ("chain", Querygraph.chain); ("star", Querygraph.star) ];
  print_endline
    "  (columns: mean total work / mean critical path.  A linear strategy's\n\
    \   makespan IS its tau — no two steps can overlap — so even under C3,\n\
    \   where Theorem 3 makes a linear strategy tau-optimal, a bushy tree\n\
    \   can finish earlier on a parallel machine: the [16]/GAMMA trade-off\n\
    \   the paper's technology-neutral cost measure deliberately leaves out)"

(* ------------------------------------------------------------------ *)
(* OBS: optimizer search-effort counters (Mj_obs)                       *)
(* ------------------------------------------------------------------ *)

let obs_metrics () =
  section "OBS"
    "Optimizer search effort via Mj_obs (pairs / entries / pruned / estimates)";
  let module Obs = Mj_obs.Obs in
  let module Json = Mj_obs.Json in
  let queries =
    [
      ("chain10", Querygraph.chain 10);
      ("star10", Querygraph.star 10);
      ("clique8", Querygraph.clique 8);
    ]
  in
  let algorithms =
    [
      ("dpsize", fun ~obs ~oracle d -> ignore (Dpsize.plan ~obs ~oracle d));
      ("dpsub", fun ~obs ~oracle d -> ignore (Dpsub.plan ~obs ~oracle d));
      ("dpccp", fun ~obs ~oracle d -> ignore (Dpccp.plan ~obs ~oracle d));
      ( "selinger",
        fun ~obs ~oracle d -> ignore (Selinger.plan ~obs ~cp:`Never ~oracle d) );
      ("goo", fun ~obs ~oracle d -> ignore (Greedy.goo ~obs ~oracle d));
    ]
  in
  Printf.printf "  %-10s %-10s %-10s %-10s %-10s %-10s\n" "query" "algorithm"
    "pairs" "entries" "pruned" "estimates";
  let blob = ref [] in
  List.iter
    (fun (qname, d) ->
      let cat =
        Catalog.synthetic
          (List.map (fun s -> (s, 64, [])) (Scheme.Set.elements d))
      in
      let oracle = Estimate.of_catalog cat in
      List.iter
        (fun (aname, run) ->
          (* One sink per (query, algorithm) so counters do not mix. *)
          let obs = Obs.make () in
          run ~obs ~oracle d;
          let v name =
            match List.assoc_opt name (Obs.counters obs) with
            | Some n -> n
            | None -> 0
          in
          Printf.printf "  %-10s %-10s %-10d %-10d %-10d %-10d\n" qname aname
            (v "opt.pairs_inspected") (v "opt.dp_entries")
            (v "opt.plans_pruned") (v "opt.estimate_calls");
          blob :=
            Json.Obj
              (("query", Json.str qname) :: ("algorithm", Json.str aname)
              :: List.map (fun (k, n) -> (k, Json.int n)) (Obs.counters obs))
            :: !blob)
        algorithms)
    queries;
  (* A machine-readable line for downstream tooling: scrape stdout for
     the BENCH_JSON prefix and parse the remainder. *)
  Printf.printf "  BENCH_JSON %s\n"
    (Json.to_string (Json.Obj [ ("optimizer_search", Json.Arr (List.rev !blob)) ]));
  check "dpccp pairs on chain10 = closed-form csg-cmp count"
    (let obs = Obs.make () in
     let d = Querygraph.chain 10 in
     let cat =
       Catalog.synthetic
         (List.map (fun s -> (s, 64, [])) (Scheme.Set.elements d))
     in
     ignore (Dpccp.plan ~obs ~oracle:(Estimate.of_catalog cat) d);
     List.assoc_opt "opt.pairs_inspected" (Obs.counters obs)
     = Some (Dpccp.count_csg_cmp_pairs d))

(* ------------------------------------------------------------------ *)
(* FRAME PAR WCOJ SERVE: the gated head-to-head legs                     *)
(* ------------------------------------------------------------------ *)

(* Each leg is a case list over Bench_core: the report prints the table
   and checks, writes BENCH_<ID>.json and exits 1 on any failure. *)
let leg id title run =
  ( id,
    fun () ->
      section id title;
      Bench_core.report (run ()) )

let frame =
  leg "FRAME"
    "Columnar dictionary-encoded frames vs seed Relation/Exec data plane \
     (equal results certified)"
    (fun () -> Frame_bench.run ~domains:(config_domains ()) ~quick:!quick ())

let par =
  leg "PAR"
    "Morsel-driven join scaling: 1/2/4/8 domains (bit-identical results \
     certified)"
    (fun () -> Par_bench.run ~quick:!quick ())

let wcoj =
  leg "WCOJ"
    "Worst-case-optimal generic join vs the best binary plan on cyclic \
     zipf-skewed workloads (bit-identical results, AGM-priced)"
    (fun () -> Wcoj_bench.run ~quick:!quick ())

let serve =
  leg "SERVE"
    "mjoin serve under concurrent mixed load (every response certified \
     against a cold Engine.run; plan-cache warm-over-cold gated)"
    (fun () -> Serve_bench.run ~quick:!quick ())

(* ------------------------------------------------------------------ *)
(* PERF: optimizer timings (bechamel)                                   *)
(* ------------------------------------------------------------------ *)

let perf () =
  section "PERF" "Optimizer timings (bechamel, OLS ns per optimization)";
  let open Bechamel in
  let cases =
    let mk name f = Test.make ~name (Staged.stage f) in
    let chain10 = Querygraph.chain 10 in
    let clique10 = Querygraph.clique 10 in
    let chain60 = Querygraph.chain 60 in
    let cat10 =
      Catalog.synthetic
        (List.map (fun s -> (s, 64, [])) (Scheme.Set.elements chain10))
    in
    let catc10 =
      Catalog.synthetic
        (List.map (fun s -> (s, 64, [])) (Scheme.Set.elements clique10))
    in
    let est10 = Estimate.of_catalog cat10 in
    let estc10 = Estimate.of_catalog catc10 in
    let est60 =
      Estimate.graph_model
        ~card:(fun _ -> 64.0)
        ~selectivity:(fun _ _ -> 1.0 /. 64.0)
        chain60
    in
    let card60 _ = 64.0 in
    let sel60 _ _ = 1.0 /. 64.0 in
    [
      mk "dpccp-chain10" (fun () -> ignore (Dpccp.plan ~oracle:est10 chain10));
      mk "dpsize-chain10" (fun () ->
          ignore (Dpsize.plan ~allow_cp:false ~oracle:est10 chain10));
      mk "dpsub-chain10" (fun () ->
          ignore (Dpsub.plan ~allow_cp:false ~oracle:est10 chain10));
      mk "selinger-chain10" (fun () ->
          ignore (Selinger.plan ~cp:`Never ~oracle:est10 chain10));
      mk "dpccp-clique10" (fun () -> ignore (Dpccp.plan ~oracle:estc10 clique10));
      mk "dpsize-clique10" (fun () ->
          ignore (Dpsize.plan ~allow_cp:false ~oracle:estc10 clique10));
      mk "ikkbz-chain60" (fun () ->
          ignore (Ikkbz.order ~card:card60 ~selectivity:sel60 chain60));
      mk "goo-chain60" (fun () -> ignore (Greedy.goo ~oracle:est60 chain60));
    ]
  in
  let test = Test.make_grouped ~name:"optimizers" ~fmt:"%s %s" cases in
  let results =
    let ols =
      Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
    in
    let instances = Toolkit.Instance.[ monotonic_clock ] in
    let cfg = Benchmark.cfg ~limit:500 ~quota:(Time.second 0.25) ~kde:None () in
    let raw = Benchmark.all cfg instances test in
    Analyze.all ols Toolkit.Instance.monotonic_clock raw
  in
  let rows = Hashtbl.fold (fun name ols acc -> (name, ols) :: acc) results [] in
  List.iter
    (fun (name, ols) ->
      match Analyze.OLS.estimates ols with
      | Some (t :: _) -> Printf.printf "  %-30s %14.0f ns/run\n" name t
      | _ -> Printf.printf "  %-30s (no estimate)\n" name)
    (List.sort compare rows)

(* ------------------------------------------------------------------ *)

let experiments =
  [
    ("EX1", ex1); ("EX2", ex2); ("EX3", ex3); ("EX4", ex4); ("EX5", ex5);
    ("FIG", fig);
    ("THM1", fun () -> theorem_experiment "THM1" 1);
    ("THM2", fun () -> theorem_experiment "THM2" 2);
    ("THM3", fun () -> theorem_experiment "THM3" 3);
    ("SK", sk); ("SPACE", space); ("GAMMA", gamma); ("MONO", mono);
    ("SETOP", setop); ("YANN", yann); ("EST", est); ("RAND", rand);
    ("PIPE", pipe); ("LEM", lem); ("COST", cost_models); ("C4JT", c4jt); ("CASE", case); ("MAKESPAN", makespan); ("LOSS", loss);
    ("OBS", obs_metrics); frame; par; wcoj; serve;
    ("PERF", perf);
  ]

let () =
  let open Cmdliner in
  let quick_arg =
    Arg.(
      value & flag
      & info [ "quick" ] ~doc:"Trim the bench legs' grids to CI-smoke scale.")
  in
  let ids_arg =
    Arg.(
      value & pos_all string []
      & info [] ~docv:"ID" ~doc:"Experiments to run (default: all).")
  in
  let run q ids flags =
    quick := q;
    (match List.filter (fun id -> not (List.mem_assoc id experiments)) ids with
    | [] -> ()
    | id :: _ ->
        Printf.eprintf "unknown experiment %s (known: %s)\n" id
          (String.concat " " (List.map fst experiments));
        exit 2);
    (* CLI > env > default: the domains flag is registered before the
       config forces its (memoized, first-set-wins) environment read, so
       every default-using path — the pool's worker count — observes
       it. *)
    Option.iter (fun d -> Pool.set_env_domains (max 1 d)) flags.Mj_cli.domains;
    config := Some (Mj_cli.make_config flags);
    List.iter
      (fun id -> List.assoc id experiments ())
      (if ids = [] then List.map fst experiments else ids);
    if !failures > 0 then begin
      Printf.eprintf "%d check(s) failed\n" !failures;
      exit 1
    end
  in
  exit
    (Cmd.eval
       (Cmd.v
          (Cmd.info "bench" ~doc:"Paper experiments and the gated bench legs")
          Term.(const run $ quick_arg $ ids_arg $ Mj_cli.engine_term)))

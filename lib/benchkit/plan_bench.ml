open Mj_relation
open Mj_hypergraph
open Multijoin
module Dbgen = Mj_workload.Dbgen
module Scenarios = Mj_workload.Scenarios
module Pool = Mj_pool.Pool
module Json = Mj_obs.Json
module Exec = Mj_engine.Exec
module Physical = Mj_engine.Physical
module Planner = Mj_engine.Planner

let algos_of plan =
  String.concat "," (List.map Physical.algorithm_name (Physical.algorithms plan))

let max_base_card db =
  List.fold_left
    (fun acc s -> max acc (Relation.cardinality (Database.find db s)))
    0 (Database.scheme_list db)

(* Lower the one strategy both ways, run both plans on the seed plane,
   and certify the chooser changed nothing observable but the operator
   mix: equal results, and both τ-exact. *)
let bench_row ~baseline ~reps workload db strategy =
  let plan_base = Planner.lower ~policy:baseline db strategy in
  let plan_cost = Planner.lower ~policy:Planner.Cost_based db strategy in
  (* Certify once, untimed, and let the result relations die before the
     timing loops: otherwise the first contender's live result inflates
     the second's GC work and skews even identical plans. *)
  let equal, tau, base_stats, cost_stats =
    let base_r, base_stats = Exec.execute db plan_base in
    let cost_r, cost_stats = Exec.execute db plan_cost in
    let tau = base_stats.Exec.tuples_generated in
    ( Relation.equal base_r cost_r
      && tau = cost_stats.Exec.tuples_generated
      && tau = Cost.tau db strategy,
      tau,
      base_stats,
      cost_stats )
  in
  let time plan =
    fst
      (Bench_core.best_of ~reps (fun () ->
           Relation.cardinality (fst (Exec.execute db plan))))
  in
  let base_ms = time plan_base in
  let cost_ms = time plan_cost in
  Bench_core.(
    row
      [
        ("workload", Key (Json.str workload));
        ("rows_per_rel", Key (Json.int (max_base_card db)));
        ("reps", Info (Json.int reps));
        ("base_ms", Ms base_ms);
        ("cost_ms", Ms cost_ms);
        speedup base_ms cost_ms;
        ("tau", Out (Json.int tau));
        ("cost_algos", Out (Json.str (algos_of plan_cost)));
        ("base_comparisons", Out (Json.int base_stats.Exec.comparisons));
        ("cost_comparisons", Out (Json.int cost_stats.Exec.comparisons));
        ("base_probes", Out (Json.int base_stats.Exec.hash_probes));
        ("cost_probes", Out (Json.int cost_stats.Exec.hash_probes));
        ("equal", Check equal);
      ])

let shape_of = function
  | "chain" -> Querygraph.chain
  | "star" -> Querygraph.star
  | "cycle" -> Querygraph.cycle
  | s -> invalid_arg ("Plan_bench: unknown shape " ^ s)

let generated shape regime n =
  let rng = Random.State.make [| n; 2026; Hashtbl.hash (shape ^ regime) |] in
  let d = shape_of shape 5 in
  match regime with
  | "uniform" -> Dbgen.uniform_db ~rng ~rows:n ~domain:(max 2 (n / 3)) d
  | "skewed" ->
      Dbgen.skewed_db ~rng ~rows:n ~domain:(max 2 (n / 3)) ~skew:1.2 d
  | "superkey" -> Dbgen.superkey_db ~rng ~rows:n ~domain:(max 3 (2 * n)) d
  | r -> invalid_arg ("Plan_bench: unknown regime " ^ r)

let run ?(baseline = Planner.Hash_all) ?domains ?(quick = false) () =
  let domains =
    match domains with Some d -> max 1 d | None -> Pool.default_domains ()
  in
  let n = if quick then 60 else 300 in
  let reps = if quick then 3 else 7 in
  (* Example 1's exact optimum uses a Cartesian product: the one step
     where the chooser must abandon hash for a loop join. *)
  let ex1 =
    let db = Scenarios.example1 in
    bench_row ~baseline ~reps:(3 * reps) "ex1-optimum" db
      (Optimal.optimum_exn db).Optimal.strategy
  in
  let gen (shape, regime) =
    let db = generated shape regime n in
    bench_row ~baseline ~reps
      (shape ^ "5-" ^ regime)
      db
      (Strategy.left_deep (Database.scheme_list db))
  in
  Bench_core.
    {
      name = "PLAN";
      meta =
        [
          ("baseline", Out (Json.str (Planner.policy_name baseline)));
          ("domains", Info (Json.int domains));
        ];
      rows =
        ex1
        :: List.map gen
             [ ("chain", "uniform"); ("chain", "skewed"); ("star", "uniform") ];
    }

open Mj_relation
open Mj_hypergraph
open Multijoin
module Dbgen = Mj_workload.Dbgen
module Pool = Mj_pool.Pool
module Json = Mj_obs.Json

(* One relation-per-key-ish database: [n] tuples per relation over a
   domain of [n] values keeps join outputs near [n] rows, so the micro
   rows measure join machinery rather than output explosion. *)
let micro_db shape n =
  let rng = Random.State.make [| n; 1990; Hashtbl.hash shape |] in
  Dbgen.uniform_db ~rng ~rows:n ~domain:(max 2 n)
    (List.assoc shape Dbgen.shapes ~rng 3)

let mk_row ?floor experiment shape n reps (seed_ms, seed_value)
    (frame_ms, frame_value) equal =
  Bench_core.(
    row ?floor
      [
        ("experiment", Key (Json.str experiment));
        ("shape", Key (Json.str shape));
        ("n", Key (Json.int n));
        ("reps", Info (Json.int reps));
        ("seed_ms", Ms seed_ms);
        ("frame_ms", Ms frame_ms);
        speedup seed_ms frame_ms;
        ("seed_value", Out (Json.int seed_value));
        ("frame_value", Out (Json.int frame_value));
        ("equal", Check equal);
      ])

(* Seed Relation.natural_join fold vs the columnar join, both pinned to
   one domain so the row isolates the kernel, not parallelism. *)
let join_micro_row dict_size (shape, n, reps) =
  let db = micro_db shape n in
  let fdb = Frame.Db.of_database db in
  dict_size := max !dict_size (Frame.Dict.size (Frame.Db.dict fdb));
  let frame_ms, frame_f =
    Bench_core.best_of ~reps (fun () -> Frame.Db.join_all ~domains:1 fdb)
  in
  let seed_ms, seed_r =
    Bench_core.best_of ~reps (fun () -> Database.join_all db)
  in
  let equal = Relation.equal seed_r (Frame.to_relation frame_f) in
  mk_row "join-micro" shape n reps
    (seed_ms, Relation.cardinality seed_r)
    (frame_ms, Frame.cardinality frame_f)
    equal

(* Columnar join at one domain vs the pool's domain count, in morsels
   of [morsel] probe rows: the probe sides span several, so the joins
   take the pool wherever it grants two workers.  Speedup is the
   parallel scaling and equality is bit-identical frames (the
   determinism argument). *)
let join_morsel_row ~domains ~morsel (shape, n, reps) =
  let db = micro_db shape n in
  let fdb = Frame.Db.of_database db in
  let one_ms, one_f =
    Bench_core.best_of ~reps (fun () ->
        Frame.Db.join_all ~domains:1 ~morsel fdb)
  in
  let par_ms, par_f =
    Bench_core.best_of ~reps (fun () -> Frame.Db.join_all ~domains ~morsel fdb)
  in
  mk_row "join-morsel" shape n reps
    (one_ms, Frame.cardinality one_f)
    (par_ms, Frame.cardinality par_f)
    (Frame.equal one_f par_f)

(* Full engine comparison on an optimized plan: the materializing Exec
   (hash joins) vs Frame_engine, equal result relations and equal τ. *)
let exec_engine_row n =
  let rng = Random.State.make [| n; 42; 1990 |] in
  let db = Dbgen.uniform_db ~rng ~rows:n ~domain:(max 2 (n / 3)) (Querygraph.chain 5) in
  let strategy = Strategy.left_deep (Database.scheme_list db) in
  let plan = Mj_engine.Physical.of_strategy strategy in
  (* The floored row: interleaved, GC-settled reps (Bench_core.race). *)
  let reps = 9 in
  let (seed_ms, (seed_r, seed_stats)), (frame_ms, (frame_r, frame_stats)) =
    Bench_core.race ~reps
      (fun () -> Mj_engine.Exec.execute db plan)
      (fun () -> Mj_engine.Frame_engine.execute_plan db plan)
  in
  let equal =
    Relation.equal seed_r frame_r
    && seed_stats.Mj_engine.Exec.tuples_generated
       = frame_stats.Mj_engine.Frame_engine.tuples_generated
  in
  (* The small-n guard: at n=200 the frame plane must at least match the
     seed executor (the 0.72× regression this floor exists to pin). *)
  mk_row
    ?floor:(if n >= 200 then Some 1.0 else None)
    "exec-engine" "chain" n reps
    (seed_ms, seed_stats.Mj_engine.Exec.tuples_generated)
    (frame_ms, frame_stats.Mj_engine.Frame_engine.tuples_generated)
    equal

(* Regimes of the GAMMA/THM experiments. *)
let regime_gen = function
  | "uniform" -> fun ~rng d -> Dbgen.uniform_db ~rng ~rows:6 ~domain:3 d
  | "skewed" -> fun ~rng d -> Dbgen.skewed_db ~rng ~rows:6 ~domain:4 ~skew:1.5 d
  | "superkey" -> fun ~rng d -> Dbgen.superkey_db ~rng ~rows:6 ~domain:10 d
  | r -> invalid_arg ("Frame_bench: unknown regime " ^ r)

let trial_dbs regime trials =
  List.init trials (fun i ->
      let rng = Random.State.make [| i + 1; 7; Hashtbl.hash regime |] in
      regime_gen regime ~rng (Querygraph.chain 6))

(* The GAMMA inner loop under one cache backend: both DP optima plus the
   complete τ table (every non-empty sub-database cardinality), so
   equality of the returned traces is bit-identical-τ-table equality. *)
let gamma_trace backend dbs =
  List.concat_map
    (fun db ->
      let cache = Cost.Cache.create ~backend db in
      let best_all = (Option.get (Optimal.optimum_cached cache)).Optimal.cost in
      let best_linear =
        (Option.get (Optimal.optimum_cached ~subspace:Enumerate.Linear cache))
          .Optimal.cost
      in
      let u = Cost.Cache.universe cache in
      let taus =
        List.init (Bitdb.full u) (fun m -> Cost.Cache.card_mask cache (m + 1))
      in
      best_all :: best_linear :: taus)
    dbs

let tau_gamma_row regime trials =
  let dbs = trial_dbs regime trials in
  let seed_ms, seed_trace = Bench_core.best_of ~reps:1 (fun () -> gamma_trace Cost.Cache.Seed dbs) in
  let frame_ms, frame_trace =
    Bench_core.best_of ~reps:1 (fun () -> gamma_trace Cost.Cache.Frame dbs)
  in
  mk_row "tau-gamma" regime trials 1
    (seed_ms, List.fold_left ( + ) 0 seed_trace)
    (frame_ms, List.fold_left ( + ) 0 frame_trace)
    (seed_trace = frame_trace)

let tau_thm_row regime trials =
  let dbs = trial_dbs regime trials in
  let verify_all backend () =
    List.map (fun db -> Theorems.verify ~backend db) dbs
  in
  let seed_ms, seed_reports = Bench_core.best_of ~reps:1 (verify_all Cost.Cache.Seed) in
  let frame_ms, frame_reports = Bench_core.best_of ~reps:1 (verify_all Cost.Cache.Frame) in
  let sum rs =
    List.fold_left (fun acc (r : Theorems.report) -> acc + r.min_all) 0 rs
  in
  mk_row "tau-thm" regime trials 1
    (seed_ms, sum seed_reports)
    (frame_ms, sum frame_reports)
    (seed_reports = frame_reports)

let run ?domains ?(quick = false) () =
  let domains =
    match domains with Some d -> max 1 d | None -> Pool.default_domains ()
  in
  let micro_specs =
    if quick then [ ("chain", 2_000, 3); ("star", 2_000, 3) ]
    else
      [ ("chain", 10_000, 9); ("star", 10_000, 9); ("chain", 100_000, 3) ]
  in
  let morsel_specs =
    if quick then [ ("chain", 2_000, 3) ] else [ ("chain", 100_000, 3) ]
  in
  (* Eight morsels at quick scale too, so the row takes the pool. *)
  let morsel = if quick then 2_000 / 8 else Frame.default_morsel in
  let trials = if quick then 2 else 8 in
  let engine_n = if quick then 60 else 200 in
  (* Certification rows fan out over the pool (merged in task order);
     the timing-sensitive join rows run sequentially afterwards so their
     wall clocks are not polluted by sibling rows. *)
  let tau_tasks =
    Array.of_list
      (List.map (fun r () -> tau_gamma_row r trials)
         [ "uniform"; "skewed"; "superkey" ]
      @ List.map (fun r () -> tau_thm_row r trials) [ "uniform"; "skewed" ])
  in
  let tau_rows = Array.to_list (Pool.run ~domains tau_tasks) in
  (* The floored engine row measures first, before the 100k-row micro
     workloads grow the major heap under every later timing. *)
  let engine_rows = [ exec_engine_row engine_n ] in
  let dict_size = ref 0 in
  let micro_rows = List.map (join_micro_row dict_size) micro_specs in
  let morsel_rows = List.map (join_morsel_row ~domains ~morsel) morsel_specs in
  Bench_core.
    {
      name = "FRAME";
      meta =
        [
          ("domains", Info (Json.int domains));
          ("morsel", Info (Json.int morsel));
          ("dict_size", Out (Json.int !dict_size));
        ];
      rows = micro_rows @ morsel_rows @ engine_rows @ tau_rows;
    }

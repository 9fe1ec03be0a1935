open Mj_relation
open Mj_hypergraph
open Multijoin
module Dbgen = Mj_workload.Dbgen
module Pool = Mj_pool.Pool
module Json = Mj_obs.Json
module Obs = Mj_obs.Obs

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
   determinism argument).  The two sides' reps interleave
   ([Bench_core.race]), so host noise lands on both. *)
let join_morsel_row ~domains ~morsel (shape, n, reps) =
  let db = micro_db shape n in
  let fdb = Frame.Db.of_database db in
  let (one_ms, one_f), (par_ms, par_f) =
    Bench_core.race ~reps
      (fun () -> Frame.Db.join_all ~domains:1 ~morsel fdb)
      (fun () -> Frame.Db.join_all ~domains ~morsel fdb)
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

(* The warm certify of a served query, on each plane: the daemon's
   [Engine.execute_digest] of the default strategy under the hash
   policy on one domain, timed by its own ["serve.certify"] span (the
   seed plane's [Relation.make] of the root list and its digest; the
   frame plane's order pass and hash loop over the unsorted root).
   Medians of alternated runs.  [sorted_rows] and [hashed_bytes] (the
   length of the digest's byte stream) are deterministic. *)
let certify_row (shape, n, reps) =
  let w =
    { Mj_serve.Protocol.shape; n; rows = 400; domain = 400; regime = "uniform";
      seed = 0 }
  in
  let db = Mj_serve.Protocol.materialize w in
  let fdb = Frame.Db.of_database db in
  let certify plane () =
    let obs = Obs.make ~gc:false () in
    let cfg =
      { (Mj_engine.Engine.Config.make ~plane ~policy:Mj_engine.Planner.Hash_all
           ~domains:1 ~obs ())
        with telemetry = None }
    in
    let plan =
      Mj_engine.Engine.lower cfg db (Mj_serve.Protocol.default_strategy db)
    in
    let digest, stats = Mj_engine.Engine.execute_digest ~fdb cfg db plan in
    let rec span = function
      | [] -> invalid_arg "Frame_bench: no serve.certify span"
      | t :: _ when t.Obs.name = "serve.certify" -> t.Obs.duration
      | t :: rest -> span (t.Obs.children @ rest)
    in
    (span (Obs.trace obs) *. 1000.0, (digest, stats))
  in
  let (seed_ms, (seed_d, _)), (frame_ms, (frame_d, frame_stats)) =
    Bench_core.race_median ~reps (certify Mj_engine.Engine.Seed)
      (certify Mj_engine.Engine.Frame)
  in
  let r = Database.join_all db in
  let hashed_bytes =
    Relation.fold
      (fun tu acc -> acc + 1 + String.length (Tuple.to_string tu))
      r
      (String.length (Scheme.to_string (Relation.scheme r)))
  in
  let sorted_rows =
    (Option.get frame_stats.Mj_engine.Engine.frame)
      .Mj_engine.Frame_engine.sorted_rows
  in
  Bench_core.(
    row
      [
        ("experiment", Key (Json.str "certify"));
        ("shape", Key (Json.str (Printf.sprintf "%s-%d" shape n)));
        ("n", Key (Json.int 400));
        ("reps", Info (Json.int reps));
        ("seed_ms", Ms seed_ms);
        ("frame_ms", Ms frame_ms);
        speedup seed_ms frame_ms;
        ("rows", Out (Json.int (Relation.cardinality r)));
        ("sorted_rows", Out (Json.int sorted_rows));
        ("hashed_bytes", Out (Json.int hashed_bytes));
        ( "equal",
          Check
            (Int64.equal seed_d frame_d
            && Int64.equal frame_d (Relation.digest r)) );
      ])

(* Regimes of the GAMMA/THM experiments. *)
let regime_gen = function
  | "uniform" -> fun ~rng d -> Dbgen.uniform_db ~rng ~rows:6 ~domain:3 d
  | "skewed" -> fun ~rng d -> Dbgen.skewed_db ~rng ~rows:6 ~domain:4 ~skew:1.5 d
  | "superkey" -> fun ~rng d -> Dbgen.superkey_db ~rng ~rows:6 ~domain:10 d
  | r -> invalid_arg ("Frame_bench: unknown regime " ^ r)

let trial_dbs ?(graph = Querygraph.chain 6) regime trials =
  List.init trials (fun i ->
      let rng = Random.State.make [| i + 1; 7; Hashtbl.hash regime |] in
      regime_gen regime ~rng graph)

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

let tau_thm_row ?(experiment = "tau-thm") ?graph regime trials =
  let dbs = trial_dbs ?graph regime trials in
  let verify_all backend () =
    List.map (fun db -> Theorems.verify ~backend db) dbs
  in
  let seed_ms, seed_reports = Bench_core.best_of ~reps:1 (verify_all Cost.Cache.Seed) in
  let frame_ms, frame_reports = Bench_core.best_of ~reps:1 (verify_all Cost.Cache.Frame) in
  let sum rs =
    List.fold_left (fun acc (r : Theorems.report) -> acc + r.min_all) 0 rs
  in
  mk_row experiment regime trials 1
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
  (* Every row is timed alone: a row that shares the cores with its
     siblings while it is timed reads their load, not its own cost.
     The τ rows and the floored engine row measure first, before the
     100k-row micro workloads grow the major heap under every later
     timing.  The chain rows count acyclic masks only; the 4-clique's
     six relations hold cyclic cores, which the frame counter merges. *)
  let tau_rows =
    List.map
      (fun r -> tau_gamma_row r trials)
      [ "uniform"; "skewed"; "superkey" ]
    @ List.map (fun r -> tau_thm_row r trials) [ "uniform"; "skewed" ]
    @ [
        tau_thm_row ~experiment:"tau-thm-clique" ~graph:(Querygraph.clique 4)
          "uniform" trials;
      ]
  in
  let engine_rows = [ exec_engine_row engine_n ] in
  let certify_reps = if quick then 11 else 41 in
  let certify_rows =
    List.map certify_row [ ("chain", 4, certify_reps); ("path", 4, certify_reps) ]
  in
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
      rows = micro_rows @ morsel_rows @ engine_rows @ certify_rows @ tau_rows;
    }

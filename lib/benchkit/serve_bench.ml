(* The SERVE benchmark: an in-process load generator against one
   Mj_serve.Serve daemon.

   Two kinds of rows:

   - "mixed" rows: N client tasks (Pool.run, one domain each) fire a
     round-robin mix of chain/star/snowflake/triangle requests across
     policies and planes through [Serve.handle_line], sharing the
     daemon's warm state.  Latencies go through the Obs quantile
     histogram (p50/p95/p99); QPS is responses over the wall clock of
     the parallel section; every "ok" response is certified
     field-by-field against a cold single-shot [Engine.run] oracle of
     the same request (rows, tau, hash, per-step τ log).

   - the "plan-cache" row: the warm-over-cold gate.  Cold = a fresh
     daemon per shot (registry miss, plan-cache miss, cold index
     caches); warm = the same line repeated against one daemon
     (registry, plan cache and index caches all hot).  The two sides
     race (Bench_core.race); the row carries the ≥ 2.0× speedup
     floor, and [warm_minor_words], the minor words of one more warm
     shot. *)

module Obs = Mj_obs.Obs
module Json = Mj_obs.Json
module Engine = Mj_engine.Engine
module Planner = Mj_engine.Planner
module Pool = Mj_pool.Pool
module Serve = Mj_serve.Serve
module Protocol = Mj_serve.Protocol

(* ------------------------------------------------------------------ *)
(* Request specs and the cold oracle                                   *)

type spec = {
  workload : Protocol.workload;
  policy : Planner.policy;
  plane : Engine.plane;
}

let request_line s =
  let w = s.workload in
  Json.to_string
    (Json.Obj
       [
         ("op", Json.str "query");
         ("shape", Json.str w.Protocol.shape);
         ("n", Json.int w.Protocol.n);
         ("rows", Json.int w.Protocol.rows);
         ("domain", Json.int w.Protocol.domain);
         ("regime", Json.str w.Protocol.regime);
         ("seed", Json.int w.Protocol.seed);
         ("policy", Json.str (Planner.policy_name s.policy));
         ("plane", Json.str (Engine.plane_name s.plane));
       ])

(* What a cold, single-shot lower-and-execute answers for a spec — the
   certification reference every served response must match bit for
   bit.  The hash comes from [Engine.execute_digest], the daemon's own
   path: it equals [Protocol.result_hash] of the decoded result. *)
type oracle = { rows : int; tau : int; hash : string; steps : string }

let oracle_of_spec s =
  let db = Protocol.materialize s.workload in
  let strategy = Protocol.default_strategy db in
  let cfg =
    Engine.Config.make ~plane:s.plane ~policy:s.policy ~domains:1
      ~obs:Obs.noop ()
  in
  let digest, stats =
    Engine.execute_digest cfg db (Engine.lower cfg db strategy)
  in
  {
    rows = stats.Engine.result_rows;
    tau = stats.Engine.tuples_generated;
    hash = Protocol.hash_hex digest;
    steps = Json.to_string (Protocol.steps_json stats.Engine.per_step);
  }

let int_field name j =
  match Json.member name j with
  | Some (Json.Num v) when Float.is_integer v -> Some (int_of_float v)
  | _ -> None

let str_field name j =
  match Json.member name j with Some (Json.Str s) -> Some s | _ -> None

(* An "ok" response matches its oracle iff rows, τ, the result hash and
   the rendered per-step log all agree. *)
let response_matches oracle line =
  match Json.of_string_opt line with
  | None -> false
  | Some j ->
      int_field "rows" j = Some oracle.rows
      && int_field "tau" j = Some oracle.tau
      && str_field "hash" j = Some oracle.hash
      && (match Json.member "steps" j with
         | Some steps -> Json.to_string steps = oracle.steps
         | None -> false)

(* ------------------------------------------------------------------ *)
(* The mixed concurrent workload                                       *)

let mixed_specs ~rows ~domain =
  let w shape n regime =
    { Protocol.default_workload with shape; n; rows; domain; regime }
  in
  [
    { workload = w "chain" 4 "uniform"; policy = Planner.Cost_based; plane = Seed };
    { workload = w "star" 4 "uniform"; policy = Planner.Hash_all; plane = Frame };
    { workload = w "snowflake" 4 "uniform"; policy = Planner.Yannakakis; plane = Seed };
    { workload = w "cycle" 3 "skewed"; policy = Planner.Wcoj; plane = Frame };
    { workload = w "chain" 4 "uniform"; policy = Planner.Hash_all; plane = Seed };
    { workload = w "star" 4 "uniform"; policy = Planner.Cost_based; plane = Frame };
  ]

let mix_name = "chain/star/snowflake/triangle x hash/cost/wcoj/yann x planes"

let count status responses =
  List.length
    (List.filter (fun r -> Protocol.status_of_response r = status) responses)

let assoc_counter name counters =
  match List.assoc_opt name counters with Some v -> v | None -> 0

(* The fields every row shares: what was run, then the response and
   plan-cache tallies (run-dependent under concurrency). *)
let identity ~workload ~mix ~clients ~requests ~queue_cap ~reps =
  Bench_core.
    [
      ("experiment", Key (Json.str "serve"));
      ("workload", Key (Json.str workload));
      ("mix", Key (Json.str mix));
      ("clients", Key (Json.int clients));
      ("requests", Key (Json.int requests));
      ("queue_cap", Key (Json.int queue_cap));
      ("reps", Info (Json.int reps));
    ]

let tallies srv ~ok ~overloaded ~errors =
  let counters = Serve.counters srv in
  Bench_core.
    [
      ("ok", Info (Json.int ok));
      ("overloaded", Info (Json.int overloaded));
      ("errors", Info (Json.int errors));
      ( "cache_hits",
        Info (Json.int (assoc_counter "serve.plan_cache_hit" counters)) );
      ( "cache_misses",
        Info (Json.int (assoc_counter "serve.plan_cache_miss" counters)) );
    ]

let mixed_row ~quick ~cores ~clients =
  let rows = if quick then 24 else 48 in
  let domain = if quick then 12 else 16 in
  let per_client = if quick then 6 else 18 in
  let specs = Array.of_list (mixed_specs ~rows ~domain) in
  let nspecs = Array.length specs in
  let queue_cap = 1024 in
  let cfg = Engine.Config.make ~domains:1 ~obs:Obs.noop () in
  let srv = Serve.create ~queue_cap ~cfg () in
  let t0 = Obs.monotonic_time () in
  let per_task =
    Pool.run ~domains:clients
      (Array.init clients (fun c () ->
           List.init per_client (fun k ->
               let i = (c + k) mod nspecs in
               let line = request_line specs.(i) in
               let s = Obs.monotonic_time () in
               let resp = Serve.handle_line srv line in
               let ms = (Obs.monotonic_time () -. s) *. 1000. in
               (i, ms, resp))))
  in
  let wall_s = Obs.monotonic_time () -. t0 in
  let shots = List.concat (Array.to_list per_task) in
  let reg = Obs.registry () in
  let histo = Obs.reg_histogram reg "serve.latency_ms" in
  List.iter (fun (_, ms, _) -> Obs.observe histo ms) shots;
  let summary = Obs.summary histo in
  let oracles = Array.map oracle_of_spec specs in
  let responses = List.map (fun (_, _, r) -> r) shots in
  let certified =
    List.for_all
      (fun (i, _, resp) ->
        Protocol.status_of_response resp = "ok"
        && response_matches oracles.(i) resp)
      shots
  in
  Bench_core.(
    row ~clamped:(clients > cores)
      (identity ~workload:"mixed" ~mix:mix_name ~clients
         ~requests:(clients * per_client) ~queue_cap ~reps:1
      @ [
          ("p50_ms", Ms summary.Obs.p50);
          ("p95_ms", Ms summary.Obs.p95);
          ("p99_ms", Ms summary.Obs.p99);
          ( "qps",
            Info (Json.float (float_of_int (List.length shots) /. wall_s)) );
        ]
      @ tallies srv ~ok:(count "ok" responses)
          ~overloaded:(count "overloaded" responses)
          ~errors:(count "error" responses)
      @ [ ("certified", Check certified) ]))

(* ------------------------------------------------------------------ *)
(* The plan-cache warm-over-cold gate                                  *)

(* The gate workload is chosen so the cold-only costs dominate: on a
   superkey chain the joins are injective (every intermediate stays at
   [rows]), so execution with warm indexes is a flat probe pass, while
   a cold shot also pays materialization, the catalog scan of the
   cost-based lowering, and the per-relation index builds. *)
let floor_spec ~quick =
  {
    workload =
      {
        Protocol.default_workload with
        shape = "chain";
        n = 6;
        rows = (if quick then 96 else 200);
        domain = 256;
        regime = "superkey";
      };
    policy = Planner.Cost_based;
    plane = Seed;
  }

let plan_cache_row ~quick =
  let spec = floor_spec ~quick in
  let line = request_line spec in
  let reps = if quick then 3 else 5 in
  let queue_cap = 64 in
  let mk () =
    Serve.create ~queue_cap
      ~cfg:(Engine.Config.make ~domains:1 ~obs:Obs.noop ())
      ()
  in
  (* Cold: a fresh daemon per shot, built outside the timed window,
     pays materialization, catalog, lowering and index builds every
     time.  Warm: one daemon, primed once — registry, plan cache and
     index caches all hot on the timed shots, every one of which is
     certified. *)
  let colds = Queue.of_seq (Seq.init reps (fun _ -> mk ())) in
  let srv = mk () in
  let _prime = Serve.handle_line srv line in
  let warm_responses = ref [] in
  let (cold_ms, _), (warm_ms, _) =
    Bench_core.race ~reps
      (fun () -> Serve.handle_line (Queue.pop colds) line)
      (fun () ->
        let resp = Serve.handle_line srv line in
        warm_responses := resp :: !warm_responses;
        resp)
  in
  (* One more warm shot, outside the race, counted in minor words: an
     exact, repeatable measure of the warm path's allocation. *)
  let before = Gc.minor_words () in
  let counted = Serve.handle_line srv line in
  let warm_minor_words = Gc.minor_words () -. before in
  let oracle = oracle_of_spec spec in
  let cached_plan resp =
    match Json.of_string_opt resp with
    | Some j -> Json.member "cached_plan" j = Some (Json.Bool true)
    | None -> false
  in
  let certified =
    List.for_all
      (fun r -> response_matches oracle r && cached_plan r)
      (counted :: !warm_responses)
  in
  Bench_core.(
    row ~floor:2.0
      (identity ~workload:"plan-cache"
         ~mix:
           (Printf.sprintf "%s policy=%s plane=%s"
              (Protocol.workload_key spec.workload)
              (Planner.policy_name spec.policy)
              (Engine.plane_name spec.plane))
         ~clients:1 ~requests:(reps + 2) ~queue_cap ~reps
      @ tallies srv ~ok:(reps + 2) ~overloaded:0 ~errors:0
      @ [
          ("cold_ms", Ms cold_ms);
          ("warm_ms", Ms warm_ms);
          ("warm_minor_words", Out (Json.int (int_of_float warm_minor_words)));
          speedup cold_ms warm_ms;
          ("certified", Check certified);
        ]))

(* ------------------------------------------------------------------ *)

let run ?(quick = false) () =
  let cores = Domain.recommended_domain_count () in
  let client_grid = if quick then [ 1; 4 ] else [ 1; 2; 4 ] in
  let rows =
    List.map (fun clients -> mixed_row ~quick ~cores ~clients) client_grid
    @ [ plan_cache_row ~quick ]
  in
  { Bench_core.name = "SERVE"; meta = []; rows }

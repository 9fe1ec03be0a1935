(* The four workloads.  Each drives the system from outside, through
   public functions only, certifies every answer after its timed
   window, and, when traced, replays part of the window with bench
   spans around each layer call so the program's own spans nest under
   them. *)

module Obs = Mj_obs.Obs
module Json = Mj_obs.Json
module Export = Mj_obs.Export
module Engine = Mj_engine.Engine
module Exec = Mj_engine.Exec
module Frame_engine = Mj_engine.Frame_engine
module Planner = Mj_engine.Planner
module Protocol = Mj_serve.Protocol
module Serve = Mj_serve.Serve
module Plan_cache = Mj_serve.Plan_cache
module Pool = Mj_pool.Pool
module Frame = Mj_relation.Frame
module Database = Mj_relation.Database
module Relation = Mj_relation.Relation
open Multijoin

let now = Obs.monotonic_time

type ctx = {
  seed : int;
  seconds : float;
  smoke : bool;
  trace_dir : string option;
  mjoin : string;  (** the [mjoin] binary the serve workloads spawn *)
}

type outcome = {
  setups : float list;  (** seconds, one per set-up *)
  latency_ms : float array;  (** untraced op latencies *)
  ops_per_s : float;
  peak_rss_mb : float;
  attempted : int;
  failures : string list;  (** one message per failed op *)
  threads : int;
  notes : (string * float * string) list;  (** further printed metrics *)
  layers : (string * float) list;  (** per-layer metrics, traced runs only *)
  invalid : string list;
}

(* Every per-layer metric with its unit.  A traced run reports all of
   them; a layer that does not run in a workload reads 0 there. *)
let layer_units =
  [
    ("workload.materialize_ms", "ms"); ("frame.encode_ms", "ms");
    ("frame.decode_ms", "ms"); ("engine.lower_ms", "ms");
    ("engine.execute_ms", "ms"); ("engine.exec_root_ms", "ms");
    ("engine.join_ms", "ms"); ("engine.scan_ms", "ms");
    ("engine.semijoin_ms", "ms"); ("engine.tau", "count");
    ("engine.tau_per_row", "ratio"); ("frame.probes", "count");
    ("frame.probe_hit_ratio", "ratio"); ("frame.morsels", "count");
    ("frame.partitions", "count"); ("pool.clamp_events", "count");
    ("protocol.parse_ms", "ms"); ("protocol.certify_ms", "ms");
    ("protocol.serialize_ms", "ms"); ("serve.plan_cache_ms", "ms");
    ("serve.handle_ms", "ms"); ("serve.request_ms", "ms");
    ("serve.request_self_ms", "ms"); ("serve.wait_ms", "ms");
    ("serve.plan_cache_hit_ratio", "ratio");
    ("serve.plan_cache_evictions", "count"); ("serve.registry_peak", "count");
    ("serve.shed", "count"); ("serve.timeouts", "count");
    ("serve.errors", "count"); ("core.verify_ms", "ms");
    ("core.conditions_ms", "ms"); ("core.optimum_ms", "ms");
    ("cost.cache_misses", "count"); ("cost.cache_hit_ratio", "ratio");
    ("cost.entries", "count"); ("gc.minor_words_per_op", "words");
    ("gc.major_collections_per_op", "count");
    ("bench.trace_overhead_ms", "ms");
    ("bench.layer_coverage", "ratio");
  ]

let complete_layers measured =
  List.iter
    (fun (name, _) ->
      if not (List.mem_assoc name layer_units) then
        invalid_arg ("unknown per-layer metric " ^ name))
    measured;
  List.map
    (fun (name, _) ->
      (name, Option.value (List.assoc_opt name measured) ~default:0.))
    layer_units

(* ------------------------------------------------------------------ *)
(* Shared helpers                                                      *)

(* Set up nine times and keep the last; every set-up is timed, and
   setup_s is their median. *)
let setup_repeated setup release =
  let rec go k acc =
    let seconds, state = setup () in
    if k = 9 then (List.rev (seconds :: acc), state)
    else begin
      release state;
      go (k + 1) (seconds :: acc)
    end
  in
  go 1 []

let timed f =
  let t0 = now () in
  let x = f () in
  (now () -. t0, x)

(* Run [op i] for i = 0, 1, ... until [budget] seconds have passed or
   [limit] ops ran; returns each op's result with its latency in ms,
   and the elapsed seconds. *)
let for_seconds ?(limit = max_int) budget op =
  let t0 = now () in
  let rec go i acc =
    if i >= limit || now () -. t0 >= budget then (List.rev acc, now () -. t0)
    else
      let s, x = timed (fun () -> op i) in
      go (i + 1) ((x, s *. 1000.) :: acc)
  in
  go 0 []

let p50 xs = Stats.percentile (Stats.sorted xs) 0.5

(* An engine configuration that ignores the MJ_* environment beyond
   the choices the workload makes explicitly. *)
let config ?(obs = Obs.noop) ~plane ~policy ~domains () =
  {
    (Engine.Config.make ~plane ~policy ~domains ~obs ()) with
    telemetry = None;
    frame_storage = Frame.Heap;
    morsel = None;
  }

let plane_of s = Option.get (Engine.plane_of_string s)
let policy_of s = Option.get (Planner.policy_of_string s)

(* Traced analysis: the bench.op roots of one pass. *)
let ops_of sink pass =
  List.filter
    (fun (s : Obs.span_tree) ->
      s.name = "bench.op" && List.assoc_opt "pass" s.attrs = Some (Json.str pass))
    (Obs.trace sink)

(* The sink of a traced replay.  Its spans carry no GC attributes: the
   two [Gc.quick_stat] probes per span would otherwise show up as gaps
   between a small op's layers. *)
let trace_sink () = Obs.make ~gc:false ()

type gc_tally = { mutable ops : int; mutable words : float; mutable majors : int }

let gc_tally () = { ops = 0; words = 0.; majors = 0 }

let durations_ms = List.map (fun (s : Obs.span_tree) -> s.duration *. 1000.)

(* The tracing overhead: the median, over ops run both ways, of the
   traced minus the untraced time of the same op. *)
let overhead_ms ~untraced ~traced = p50 (List.map2 ( -. ) traced untraced)

(* One traced op: a bench.op root, its allocation tallied outside it. *)
let op_span ?(gc = gc_tally ()) sink pass f =
  let g0 = Gc.quick_stat () in
  let x = Obs.span sink ~attrs:[ ("pass", Json.str pass) ] "bench.op" f in
  let g1 = Gc.quick_stat () in
  gc.ops <- gc.ops + 1;
  gc.words <- gc.words +. g1.minor_words -. g0.minor_words;
  gc.majors <- gc.majors + g1.major_collections - g0.major_collections;
  x

(* Mean ms per op spent in spans of one of [names]. *)
let per_op table n names =
  List.fold_left (fun acc name -> acc +. Layers.busy table name) 0. names
  *. 1000. /. float_of_int (max 1 n)

let exec_roots = [ "execute"; "execute-frame" ]

let gc_per_op g =
  let n = float_of_int (max 1 g.ops) in
  [
    ("gc.minor_words_per_op", g.words /. n);
    ("gc.major_collections_per_op", float_of_int g.majors /. n);
  ]

let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b

(* Engine counters summed over the traced ops' stats. *)
let engine_counts (stats : Engine.stats list) =
  let n = max 1 (List.length stats) in
  let sum f = List.fold_left (fun acc s -> acc + f s) 0 stats in
  let frame f =
    sum (fun (s : Engine.stats) ->
        match s.frame with Some fs -> f fs | None -> 0)
  in
  let tau = sum (fun s -> s.tuples_generated) in
  [
    ("engine.tau", ratio tau n);
    ("engine.tau_per_row", ratio tau (sum (fun s -> s.result_rows)));
    ("frame.probes", ratio (frame (fun fs -> fs.Frame_engine.probes)) n);
    ( "frame.probe_hit_ratio",
      ratio
        (frame (fun fs -> fs.Frame_engine.probe_hits))
        (frame (fun fs -> fs.Frame_engine.probes)) );
    ("frame.morsels", ratio (frame (fun fs -> fs.Frame_engine.morsels)) n);
    ( "frame.partitions",
      ratio (frame (fun fs -> fs.Frame_engine.partitions)) n );
  ]

(* Engine layer times of ops whose [engine.execute] span wraps
   [Engine.execute_plan]: decode is what execute_plan spends outside
   the plane's execute root. *)
let engine_layers table n =
  let execute = per_op table n [ "engine.execute" ] in
  let root = per_op table n exec_roots in
  [
    ("workload.materialize_ms", per_op table n [ "workload.materialize" ]);
    ("frame.encode_ms", per_op table n [ "frame.encode" ]);
    ("engine.lower_ms", per_op table n [ "engine.lower" ]);
    ("engine.execute_ms", execute);
    ("engine.exec_root_ms", root);
    ("frame.decode_ms", execute -. root);
    ("engine.join_ms", per_op table n [ "join" ]);
    ("engine.scan_ms", per_op table n [ "scan" ]);
    ("engine.semijoin_ms", per_op table n [ "semijoin" ]);
    ("protocol.certify_ms", per_op table n [ "protocol.certify" ]);
  ]

(* Write the trace, print each pass's layer table and flag the ops
   whose named layers cover less than 95% of the op.  Returns the share
   of all ops' time the named layers cover: a GC pause or a preemption
   that lands between two layer spans can leave a single small op
   under 95%, which the flag reports without hiding the total. *)
let report_trace ~dir ~workload sink passes =
  let path = Filename.concat dir (workload ^ ".jsonl") in
  Export.write_jsonl path sink;
  Printf.printf "# trace %s\n" path;
  let ops = List.concat_map (ops_of sink) passes in
  List.iter
    (fun pass ->
      let ops = ops_of sink pass in
      let root_busy =
        List.fold_left (fun acc (s : Obs.span_tree) -> acc +. s.duration) 0. ops
      in
      Format.printf "# layers of %s, pass %s (%d ops)@." workload pass
        (List.length ops);
      Layers.pp_table Format.std_formatter ~root_busy (Layers.table ops);
      match List.filter (fun s -> Layers.coverage s < 0.95) ops with
      | [] -> ()
      | low ->
          Printf.printf
            "# %d of %d %s ops: named layers cover < 95%% of bench.op (lowest %.3f)\n"
            (List.length low) (List.length ops) pass
            (List.fold_left (fun acc s -> Float.min acc (Layers.coverage s)) 1. low))
    passes;
  let sum f = List.fold_left (fun acc s -> acc +. f s) 0. ops in
  sum Layers.children_covered /. sum (fun (s : Obs.span_tree) -> s.duration)

(* ------------------------------------------------------------------ *)
(* Serve workloads: one client against a real daemon                   *)

type serve_params = {
  stream : Schedule.spec;
  warmup : int;  (** requests answered before the timed window *)
  prime_all : bool;
      (** prime every key of the stream; otherwise warm each kind once
          on a database outside the stream, then invalidate *)
}

let kind shape n regime policy plane = { Schedule.shape; n; regime; policy; plane }

let serve_hot ~smoke =
  {
    stream =
      {
        kinds =
          [|
            kind "chain" 4 "uniform" "hash" "seed";
            kind "chain" 4 "uniform" "cost" "frame";
            kind "star" 4 "uniform" "yann" "seed";
            kind "star" 4 "uniform" "hash" "frame";
            kind "snowflake" 5 "uniform" "yann" "frame";
            kind "snowflake" 5 "uniform" "cost" "seed";
            kind "path" 4 "uniform" "yann" "seed";
            kind "path" 4 "uniform" "hash" "frame";
            kind "cycle" 3 "uniform" "wcoj" "frame";
            kind "cycle" 4 "uniform" "hash" "frame";
            kind "clique" 4 "uniform" "wcoj" "frame";
            kind "cycle" 3 "uniform" "cost" "seed";
          |];
        rows = (if smoke then 60 else 400);
        domain = (if smoke then 60 else 400);
        instances = (if smoke then 1 else 4);
        invalidate_every = None;
      };
    warmup = (if smoke then 12 else 240);
    prime_all = true;
  }

let serve_churn ~smoke =
  {
    stream =
      {
        kinds =
          [|
            kind "chain" 4 "uniform" "cost" "frame";
            kind "star" 4 "uniform" "hash" "seed";
            kind "snowflake" 5 "uniform" "yann" "frame";
            kind "cycle" 3 "uniform" "wcoj" "frame";
          |];
        rows = (if smoke then 60 else 1000);
        domain = (if smoke then 60 else 1000);
        instances = (if smoke then 10 else 80);
        invalidate_every = Some 400;
      };
    warmup = (if smoke then 8 else 80);
    prime_all = false;
  }

let prime_lines p =
  let s = p.stream in
  let query (k, instance) = Schedule.line s ~id:0 (Schedule.Query (k, instance)) in
  if p.prime_all then List.map query (Schedule.keys s)
  else
    (* Instance [instances] is never drawn by the stream. *)
    List.init (Array.length s.kinds) (fun k -> query (k, s.instances))
    @ [ Schedule.line s ~id:0 Schedule.Invalidate ]

type expected = { rows : int; tau : int; hash : string; steps : string }

(* What a cold single-shot Engine.run answers for a key: the reference
   every served response must match on rows, τ, hash and step log. *)
let oracle (s : Schedule.spec) key =
  let kind = s.kinds.(fst key) in
  let db = Protocol.materialize (Schedule.workload s key) in
  let cfg =
    config ~plane:(plane_of kind.plane) ~policy:(policy_of kind.policy)
      ~domains:1 ()
  in
  let result, st = Engine.run cfg db (Protocol.default_strategy db) in
  {
    rows = st.result_rows;
    tau = st.tuples_generated;
    hash = Protocol.hash_hex (Protocol.result_hash result);
    steps = Json.to_string (Protocol.steps_json st.per_step);
  }

let memo f =
  let t = Hashtbl.create 64 in
  fun k ->
    match Hashtbl.find_opt t k with
    | Some v -> v
    | None ->
        let v = f k in
        Hashtbl.add t k v;
        v

(* [None] if response [i] answers request [i] correctly. *)
let check_response expect i req resp =
  let fail fmt = Printf.ksprintf (fun m -> Some (Printf.sprintf "request %d: %s" i m)) fmt in
  let field name j = Json.member name j in
  match Json.of_string_opt resp with
  | None -> fail "unparsable response"
  | Some j -> (
      match (field "id" j, field "status" j) with
      | id, _ when id <> Some (Json.int i) -> fail "response to another request"
      | _, Some (Json.Str "ok") -> (
          match req with
          | Schedule.Invalidate -> None
          | Schedule.Query (k, inst) ->
              let e = expect (k, inst) in
              if
                field "rows" j = Some (Json.int e.rows)
                && field "tau" j = Some (Json.int e.tau)
                && field "hash" j = Some (Json.str e.hash)
                && Option.map Json.to_string (field "steps" j) = Some e.steps
              then None
              else fail "answer differs from the cold oracle")
      | _, Some (Json.Str status) -> fail "%s %s" status resp
      | _ -> fail "no status")

let counter_of stats name =
  match Option.bind (Json.of_string_opt stats) (Json.member name) with
  | Some (Json.Num v) -> int_of_float v
  | _ -> 0

(* The bench's own copy of the daemon's warm path, one bench span per
   layer: parse, registry lookup, plan cache (the daemon's LRU at its
   default capacity), execute, certify, serialize — with materialize
   and encode on a registry miss, and lower nested in the plan cache
   on a plan miss. *)
type warm_entry = {
  db : Database.t;
  mutable fdb : Frame.Db.t option;
  cache : Exec.index_cache;
}

let warm_path () =
  let registry = Hashtbl.create 64 and plans = Plan_cache.create ~cap:128 in
  let base = config ~plane:Engine.Seed ~policy:Planner.Hash_all ~domains:1 () in
  fun sink line ->
    let span name f = Obs.span sink name f in
    match span "protocol.parse" (fun () -> Protocol.parse line) with
    | Ok { Protocol.op = Protocol.Invalidate; _ } ->
        span "serve.invalidate" (fun () ->
            Hashtbl.reset registry;
            ignore (Plan_cache.remove_where plans (fun _ -> true)));
        None
    | Ok { Protocol.id; op = Protocol.Query q } ->
        let key, e =
          span "serve.registry" (fun () ->
              let key = Protocol.workload_key q.workload in
              match Hashtbl.find_opt registry key with
              | Some e -> (key, e)
              | None ->
                  let db =
                    span "workload.materialize" (fun () ->
                        Protocol.materialize q.workload)
                  in
                  let e = { db; fdb = None; cache = Exec.index_cache () } in
                  Hashtbl.add registry key e;
                  (key, e))
        in
        let plane = Option.value q.plane ~default:Engine.Seed in
        let cfg =
          { base with plane; algo_policy = q.policy; index_cache = e.cache; obs = sink }
        in
        let fdb =
          match plane with
          | Engine.Seed -> None
          | Engine.Frame ->
              if e.fdb = None then
                e.fdb <-
                  Some (span "frame.encode" (fun () -> Frame.Db.of_database e.db));
              e.fdb
        in
        let plan =
          span "serve.plan_cache" (fun () ->
              let strategy = Protocol.default_strategy e.db in
              let pkey =
                String.concat "|"
                  [
                    Engine.plane_name plane; Planner.policy_name q.policy; key;
                    Format.asprintf "%a" Strategy.pp strategy;
                  ]
              in
              match Plan_cache.find plans pkey with
              | Some plan -> plan
              | None ->
                  let plan =
                    span "engine.lower" (fun () -> Engine.lower cfg e.db strategy)
                  in
                  Plan_cache.add plans pkey plan;
                  plan)
        in
        let result, stats =
          span "engine.execute" (fun () -> Engine.execute_plan ?fdb cfg e.db plan)
        in
        let hash =
          span "protocol.certify" (fun () ->
              Protocol.hash_hex (Protocol.result_hash result))
        in
        ignore
          (span "protocol.serialize" (fun () ->
               Protocol.ok ~id
                 [
                   ("rows", Json.int stats.result_rows);
                   ("tau", Json.int stats.tuples_generated);
                   ("hash", Json.str hash);
                   ("steps", Protocol.steps_json stats.per_step);
                 ]));
        Some stats
    | Ok _ -> None
    | Error msg -> failwith ("replayed line does not parse: " ^ msg)

(* The traced part of a serve run: the run's requests replayed
   in-process.  Each line goes through an untraced and a traced Serve.t
   in turn, so a drift of the machine hits both sides of the tracing
   overhead alike; then the same lines go through the layered warm
   path.  [daemon_ms] holds the daemon's latency of each line, in
   order. *)
let serve_layers ctx p ~dir ~workload ~lines ~daemon_ms =
  let prime = prime_lines p in
  let in_process obs =
    let srv =
      Serve.create ~queue_cap:256
        ~cfg:(config ~obs ~plane:Engine.Seed ~policy:Planner.Hash_all ~domains:1 ())
        ()
    in
    List.iter (fun l -> ignore (Serve.handle_line srv ~obs:Obs.noop l)) prime;
    srv
  in
  let sink = trace_sink () in
  let plain = in_process Obs.noop and traced = in_process sink in
  let registry_peak = ref 0 and gc = gc_tally () in
  let untraced, _ =
    for_seconds ~limit:(Array.length lines) (ctx.seconds /. 4.) (fun i ->
        let s, _ = timed (fun () -> Serve.handle_line plain lines.(i)) in
        op_span ~gc sink "handle" (fun () ->
            Obs.span sink "serve.handle" (fun () ->
                ignore (Serve.handle_line traced lines.(i))));
        registry_peak :=
          max !registry_peak (List.assoc "serve.db_registry" (Serve.counters traced));
        s *. 1000.)
  in
  let n = List.length untraced in
  let untraced_p50 = p50 (List.map fst untraced) in
  let warm = warm_path () in
  List.iter (fun l -> ignore (warm Obs.noop l)) prime;
  let stats =
    List.filter_map Fun.id
      (List.init n (fun i -> op_span sink "warm" (fun () -> warm sink lines.(i))))
  in
  let coverage = report_trace ~dir ~workload sink [ "handle"; "warm" ] in
  let handle_ops = ops_of sink "handle" in
  let th = Layers.table handle_ops and tw = Layers.table (ops_of sink "warm") in
  let request = per_op th n [ "serve.request" ] in
  engine_layers tw n @ engine_counts stats @ gc_per_op gc
  @ [
      ("protocol.parse_ms", per_op tw n [ "protocol.parse" ]);
      ("protocol.serialize_ms", per_op tw n [ "protocol.serialize" ]);
      ( "serve.plan_cache_ms",
        per_op tw n [ "serve.plan_cache" ] -. per_op tw n [ "engine.lower" ] );
      ("serve.handle_ms", per_op th n [ "serve.handle" ]);
      ("serve.request_ms", request);
      ("serve.request_self_ms", request -. per_op th n exec_roots);
      ("serve.wait_ms", p50 (List.filteri (fun i _ -> i < n) daemon_ms) -. untraced_p50);
      ("serve.registry_peak", float_of_int !registry_peak);
      ( "bench.trace_overhead_ms",
        overhead_ms ~untraced:(List.map fst untraced) ~traced:(durations_ms handle_ops) );
      ("bench.layer_coverage", coverage);
    ]

(* Set up the daemon, answer [p.warmup] requests, then time one
   request at a time for the window: each request is sent when the
   previous one has been answered, so every latency is the daemon's
   answer plus the wire, never a queue behind other requests. *)
let run_serve ~workload p ctx =
  let s = p.stream and seed = ctx.seed in
  let request i = Schedule.request s ~seed i in
  let line i = Schedule.line s ~id:i (request i) in
  let reps = ref 0 in
  let setups, d =
    setup_repeated
      (fun () ->
        incr reps;
        timed (fun () ->
            let sock = Printf.sprintf ".mjbench-%d-%d.sock" (Unix.getpid ()) !reps in
            let d = Loadgen.spawn ~mjoin:ctx.mjoin ~sock in
            (match
               List.iter
                 (fun l ->
                   let r = Loadgen.call d l in
                   if Protocol.status_of_response r <> "ok" then
                     failwith ("priming failed: " ^ r))
                 (prime_lines p)
             with
            | () -> ()
            | exception e ->
                Loadgen.shutdown d;
                raise e);
            d))
      Loadgen.shutdown
  in
  let warm, timed_window, stats, rss =
    Fun.protect
      ~finally:(fun () -> Loadgen.shutdown d)
      (fun () ->
        let warm, _ =
          for_seconds ~limit:p.warmup Float.infinity (fun i -> Loadgen.call d (line i))
        in
        let timed_window =
          for_seconds ctx.seconds (fun i -> Loadgen.call d (line (p.warmup + i)))
        in
        let stats = Loadgen.call d {|{"op":"stats"}|} in
        (warm, timed_window, stats, Loadgen.peak_rss_mb d.pid))
  in
  let results, elapsed = timed_window in
  let responses = Array.of_list (List.map fst (warm @ results)) in
  let latency_ms = Array.of_list (List.map snd results) in
  let expect = memo (oracle s) in
  let failures =
    List.filter_map Fun.id
      (List.init (Array.length responses) (fun i ->
           check_response expect i (request i) responses.(i)))
  in
  let counter = counter_of stats in
  let layers =
    match ctx.trace_dir with
    | None -> []
    | Some dir ->
        complete_layers
          (serve_layers ctx p ~dir ~workload
             ~lines:(Array.init (Array.length responses) line)
             ~daemon_ms:(List.map snd (warm @ results))
          @ [
              ( "serve.plan_cache_hit_ratio",
                ratio
                  (counter "serve.plan_cache_hit")
                  (counter "serve.plan_cache_hit" + counter "serve.plan_cache_miss")
              );
              ( "serve.plan_cache_evictions",
                float_of_int (counter "serve.plan_cache_evictions") );
              ("serve.shed", float_of_int (counter "serve.overloaded"));
              ("serve.timeouts", float_of_int (counter "serve.timeouts"));
              ("serve.errors", float_of_int (counter "serve.errors"));
              ("pool.clamp_events", float_of_int (Pool.clamp_events ()));
            ])
  in
  {
    setups;
    latency_ms;
    ops_per_s = float_of_int (Array.length latency_ms) /. elapsed;
    peak_rss_mb = rss;
    attempted = Array.length responses;
    failures;
    threads = 2;
    notes = [];
    layers;
    invalid = [];
  }

(* ------------------------------------------------------------------ *)
(* oneshot-large: cold query pipelines, closed loop, in-process        *)

let oneshot_kinds =
  [|
    kind "chain" 4 "uniform" "cost" "frame";
    kind "chain" 4 "uniform" "cost" "seed";
    kind "star" 4 "uniform" "hash" "frame";
    kind "cycle" 3 "skewed" "wcoj" "frame";
    kind "cycle" 3 "skewed" "cost" "frame";
    kind "snowflake" 5 "uniform" "yann" "frame";
  |]

let oneshot_instances = 4

(* Skewed data gets a domain an eighth of its rows, so the binary
   plan's hot-value intermediates dwarf the generic join's. *)
let shot_input ~smoke (k, instance) =
  let kd = oneshot_kinds.(k) and rows = if smoke then 300 else 6000 in
  ( kd,
    {
      Protocol.shape = kd.shape;
      n = kd.n;
      rows;
      domain = (if kd.regime = "skewed" then rows / 8 else rows);
      regime = kd.regime;
      seed = instance;
    } )

let shot_key ~seed i =
  ( i mod Array.length oneshot_kinds,
    Random.State.int (Random.State.make [| seed; i |]) oneshot_instances )

(* One cold [mjoin query]-style pipeline under a fresh configuration. *)
let shot ~obs ~domains ((kd : Schedule.kind), w) =
  let span name f = Obs.span obs name f in
  let plane = plane_of kd.plane in
  let cfg = config ~obs ~plane ~policy:(policy_of kd.policy) ~domains () in
  let db = span "workload.materialize" (fun () -> Protocol.materialize w) in
  let fdb =
    match plane with
    | Engine.Frame -> Some (span "frame.encode" (fun () -> Frame.Db.of_database db))
    | Engine.Seed -> None
  in
  let plan =
    span "engine.lower" (fun () -> Engine.lower cfg db (Protocol.default_strategy db))
  in
  let result, stats =
    span "engine.execute" (fun () -> Engine.execute_plan ?fdb cfg db plan)
  in
  (stats, span "protocol.certify" (fun () -> Protocol.result_hash result))

let run_oneshot ctx =
  let seed = ctx.seed and domains = min 2 (Domain.recommended_domain_count ()) in
  let input key = shot_input ~smoke:ctx.smoke key in
  let op ~obs i = shot ~obs ~domains (input (shot_key ~seed i)) in
  let setups, () =
    setup_repeated
      (fun () ->
        timed (fun () ->
            Array.iteri
              (fun k _ -> ignore (shot ~obs:Obs.noop ~domains (input (k, 0))))
              oneshot_kinds))
      ignore
  in
  let results, elapsed = for_seconds ctx.seconds (op ~obs:Obs.noop) in
  let rss = Loadgen.peak_rss_mb 0 in
  let expect =
    memo (fun key ->
        let db = Protocol.materialize (snd (input key)) in
        let cfg = config ~plane:Engine.Seed ~policy:Planner.Hash_all ~domains:1 () in
        let result, stats = Engine.run cfg db (Protocol.default_strategy db) in
        (stats.result_rows, Protocol.result_hash result))
  in
  let failures =
    List.filter_map Fun.id
      (List.mapi
         (fun i (((stats : Engine.stats), hash), _) ->
           if expect (shot_key ~seed i) = (stats.result_rows, hash) then None
           else Some (Printf.sprintf "op %d: answer differs from the seed-plane oracle" i))
         results)
  in
  let layers =
    match ctx.trace_dir with
    | None -> []
    | Some dir ->
        (* Each op runs untraced, then traced, so the two sides of the
           tracing overhead see the same machine. *)
        let sink = trace_sink () and gc = gc_tally () in
        let pairs, _ =
          for_seconds (ctx.seconds /. 4.) (fun i ->
              let untraced, _ = timed (fun () -> op ~obs:Obs.noop i) in
              (untraced *. 1000., op_span ~gc sink "op" (fun () -> fst (op ~obs:sink i))))
        in
        let n = List.length pairs in
        let ops = ops_of sink "op" in
        let coverage = report_trace ~dir ~workload:"oneshot-large" sink [ "op" ] in
        complete_layers
          (engine_layers (Layers.table ops) n
          @ engine_counts (List.map (fun ((_, stats), _) -> stats) pairs)
          @ gc_per_op gc
          @ [
              ("pool.clamp_events", float_of_int (Pool.clamp_events ()));
              ( "bench.trace_overhead_ms",
                overhead_ms
                  ~untraced:(List.map (fun ((u, _), _) -> u) pairs)
                  ~traced:(durations_ms ops) );
              ("bench.layer_coverage", coverage);
            ])
  in
  {
    setups;
    latency_ms = Array.of_list (List.map snd results);
    ops_per_s = float_of_int (List.length results) /. elapsed;
    peak_rss_mb = rss;
    attempted = List.length results;
    failures;
    threads = domains;
    notes = [];
    layers;
    invalid =
      (if Pool.clamp_events () > 0 then [ "the pool clamped its worker count" ]
       else []);
  }

(* ------------------------------------------------------------------ *)
(* tau-sweep: the paper's theorem validators over generated databases  *)

(* THM-scale databases: k = 5 or 6 relations over a random connected
   query graph, 5-8 rows, in the superkey, uniform or skewed regime;
   each (k, regime) pair is a sixth of the pool, so every seed gets
   the same mix.  Skewed rows stay at 8 or fewer: at k = 6 the skewed
   joins grow combinatorially with the rows. *)
let tau_db ~seed i =
  let rng = Random.State.make [| seed; i |] in
  let k = 5 + (i mod 6 / 3) and rows = 5 + Random.State.int rng 4 in
  let d = Mj_hypergraph.Querygraph.random ~extra_edge_prob:0.3 ~rng k in
  match i mod 3 with
  | 0 -> Mj_workload.Dbgen.superkey_db ~rng ~rows ~domain:(rows + 4) d
  | 1 -> Mj_workload.Dbgen.uniform_db ~rng ~rows ~domain:3 d
  | _ -> Mj_workload.Dbgen.skewed_db ~rng ~rows ~domain:4 ~skew:1.2 d

(* [Theorems.verify]'s steps replayed through public functions on a
   fresh cache, one bench span each. *)
let verify_layers sink db =
  let span name f = Obs.span sink name f in
  let cache =
    span "cost.cache" (fun () -> Cost.Cache.create ~obs:sink ~backend:Cost.Cache.Frame db)
  in
  ignore
    (span "core.nonempty" (fun () ->
         Mj_hypergraph.Hypergraph.connected (Database.schemes db)
         && not (Relation.is_empty (Database.join_all db))));
  ignore (span "core.conditions" (fun () -> Conditions.summarize_cached cache));
  List.iter
    (fun subspace ->
      ignore (span "core.optimum" (fun () -> Optimal.optimum_cached ~subspace cache)))
    Enumerate.[ All; Linear; Cp_free; Linear_cp_free ];
  ignore
    (span "core.theorem1" (fun () ->
         Optimal.all_optima_cached ~subspace:Enumerate.Linear cache));
  cache

let refuted (r : Theorems.report) =
  List.mem Theorems.Refuted [ r.theorem1; r.theorem2; r.theorem3 ]

let run_tau ctx =
  let pool_size = if ctx.smoke then 200 else 4000 in
  let setups, pool =
    setup_repeated
      (fun () -> timed (fun () -> Array.init pool_size (tau_db ~seed:ctx.seed)))
      ignore
  in
  let db i = pool.(i mod pool_size) in
  let results, elapsed =
    for_seconds ctx.seconds (fun i ->
        Theorems.verify ~backend:Cost.Cache.Frame (db i))
  in
  let rss = Loadgen.peak_rss_mb 0 in
  let failures =
    List.filter_map Fun.id
      (List.mapi
         (fun i (report, _) ->
           if refuted report then Some (Printf.sprintf "database %d: REFUTED" i)
           else if
             i < 50 && Theorems.verify ~backend:Cost.Cache.Seed (db i) <> report
           then Some (Printf.sprintf "database %d: seed and frame reports differ" i)
           else None)
         results)
  in
  let layers =
    match ctx.trace_dir with
    | None -> []
    | Some dir ->
        (* Each database goes through the layered replay, then through
           Theorems.verify itself inside one span: the untraced side of
           the tracing overhead, on the same machine moment. *)
        let sink = trace_sink () and gc = gc_tally () in
        let entries, _ =
          for_seconds (ctx.seconds /. 4.) (fun i ->
              let cache = op_span ~gc sink "op" (fun () -> verify_layers sink (db i)) in
              Obs.span sink "core.verify" (fun () ->
                  ignore (Theorems.verify ~backend:Cost.Cache.Frame (db i)));
              Cost.Cache.entries cache)
        in
        let n = List.length entries in
        let ops = ops_of sink "op" in
        let verify =
          List.filter (fun (s : Obs.span_tree) -> s.name = "core.verify") (Obs.trace sink)
        in
        let table = Layers.table ops in
        let coverage = report_trace ~dir ~workload:"tau-sweep" sink [ "op" ] in
        let counter name = Option.value (List.assoc_opt name (Obs.counters sink)) ~default:0 in
        let hits = counter "cost.cache_hits" and misses = counter "cost.cache_misses" in
        complete_layers
          (gc_per_op gc
          @ [
              ("core.verify_ms", per_op (Layers.table verify) n [ "core.verify" ]);
              ("core.conditions_ms", per_op table n [ "core.conditions" ]);
              ("core.optimum_ms", per_op table n [ "core.optimum" ]);
              ("cost.cache_misses", ratio misses n);
              ("cost.cache_hit_ratio", ratio hits (hits + misses));
              ("cost.entries", ratio (List.fold_left (fun acc (e, _) -> acc + e) 0 entries) n);
              ("pool.clamp_events", float_of_int (Pool.clamp_events ()));
              ( "bench.trace_overhead_ms",
                overhead_ms ~untraced:(durations_ms verify) ~traced:(durations_ms ops) );
              ("bench.layer_coverage", coverage);
            ])
  in
  {
    setups;
    latency_ms = Array.of_list (List.map snd results);
    ops_per_s = float_of_int (List.length results) /. elapsed;
    peak_rss_mb = rss;
    attempted = List.length results;
    failures;
    threads = 1;
    notes = [ ("databases", float_of_int (min pool_size (List.length results)), "count") ];
    layers;
    invalid = [];
  }

let all =
  [
    ("serve-hot", fun ctx -> run_serve ~workload:"serve-hot" (serve_hot ~smoke:ctx.smoke) ctx);
    ( "serve-churn",
      fun ctx -> run_serve ~workload:"serve-churn" (serve_churn ~smoke:ctx.smoke) ctx );
    ("oneshot-large", run_oneshot);
    ("tau-sweep", run_tau);
  ]

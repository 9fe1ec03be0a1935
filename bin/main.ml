(* mjoin — command-line front end for the multijoin library.

   Subcommands:
     examples    print a paper scenario and every claim checked live
     conditions  condition summary and violation witnesses of a scenario
     verify      theorem report for a scenario or a generated database
     enumerate   count / list the strategy subspaces of a query shape
     optimize    generate a database and compare optimizers on it
     space       search-space size table for a query shape
     analyze     load a database file; verify and optimize it
     plan        cost and execute one strategy on a scenario
     query       run a conjunctive query against a database file
     explain     EXPLAIN ANALYZE: execute a plan with tracing on
     topk        ranked enumeration of an alpha-acyclic join
     stats       execute a plan repeatedly and print registry metrics
     bench-diff  regression gate over BENCH_*.json files
     fuzz        differential/metamorphic fuzzing of the engine matrix
     serve       long-running NDJSON query daemon

   verify, explain, topk and stats run on [--scenario] or on the
   database the generation flags denote (optimize: the flags only);
   that database is [Protocol.materialize]'s, the daemon's builder. *)

open Mj_relation
open Mj_hypergraph
open Multijoin
open Mj_optimizer
open Cmdliner
module Obs = Mj_obs.Obs
module Json = Mj_obs.Json
module Export = Mj_obs.Export
module Engine = Mj_engine.Engine
module Planner = Mj_engine.Planner
module Physical = Mj_engine.Physical
module Protocol = Mj_serve.Protocol

(* ------------------------------------------------------------------ *)
(* Shared arguments                                                     *)
(* ------------------------------------------------------------------ *)

let scenario_conv =
  let parse name =
    match List.assoc_opt name Mj_workload.Scenarios.all with
    | Some db -> Ok (name, db)
    | None ->
        Error
          (`Msg
            (Printf.sprintf "unknown scenario %s (expected one of %s)" name
               (String.concat ", " (List.map fst Mj_workload.Scenarios.all))))
  in
  Arg.conv (parse, fun fmt (name, _) -> Format.pp_print_string fmt name)

(* The scenario [examples], [conditions] and [plan] take first. *)
let scenario_pos =
  Arg.(
    required
    & pos 0 (some scenario_conv) None
    & info [] ~docv:"SCENARIO"
        ~doc:
          ("Scenario name: "
          ^ String.concat ", " (List.map fst Mj_workload.Scenarios.all)
          ^ "."))

let shape_conv =
  let parse = function
    | s when List.mem_assoc s Mj_workload.Dbgen.shapes -> Ok s
    | s -> Error (`Msg (Printf.sprintf "unknown shape %s" s))
  in
  Arg.conv (parse, Format.pp_print_string)

let shape_arg =
  Arg.(
    value
    & opt shape_conv "chain"
    & info [ "shape" ]
        ~doc:
          ("Query shape: "
          ^ String.concat ", " (List.map fst Mj_workload.Dbgen.shapes)
          ^ "."))

let n_arg =
  Arg.(value & opt int 5 & info [ "n"; "size" ] ~doc:"Number of relations.")

let seed_arg = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Random seed.")

let rows_arg =
  Arg.(value & opt int 6 & info [ "rows" ] ~doc:"Rows per base relation.")

let domain_arg =
  Arg.(value & opt int 8 & info [ "domain" ] ~doc:"Attribute domain size.")

let regime_conv =
  let parse = function
    | r when List.mem r Mj_workload.Dbgen.regimes -> Ok r
    | s -> Error (`Msg (Printf.sprintf "unknown regime %s" s))
  in
  Arg.conv (parse, Format.pp_print_string)

let regime_arg =
  Arg.(
    value
    & opt regime_conv "uniform"
    & info [ "regime" ]
        ~doc:"Data regime: superkey (C3 holds), uniform, skewed, consistent.")

(* The generation flags as the workload they denote; its database is
   [Protocol.materialize]'s, the serve daemon's and the fuzzer's
   builder. *)
let workload_term =
  let make shape n seed rows domain regime =
    { Protocol.shape; n; rows; domain; regime; seed }
  in
  Term.(
    const make $ shape_arg $ n_arg $ seed_arg $ rows_arg $ domain_arg
    $ regime_arg)

(* A workload's database.  A knob out of range (a cycle of fewer than
   three relations, superkey rows over the domain) is the user's error,
   not an internal one. *)
let materialize w =
  try Protocol.materialize w
  with Invalid_argument msg ->
    prerr_endline ("mjoin: " ^ msg);
    exit 1

(* A generated database's telemetry [query] string. *)
let query_of (w : Protocol.workload) =
  Printf.sprintf "%s-%d/%s/seed%d" w.shape w.n w.regime w.seed

(* The database a command runs on: the named paper scenario, else the
   one the generation flags denote, labelled with the scenario's name
   or the generating knobs. *)
type input = {
  label : string;
  workload : Protocol.workload option;  (** [None]: a paper scenario *)
  db : Database.t;
}

let input_term =
  let scenario =
    Arg.(
      value
      & opt (some scenario_conv) None
      & info [ "scenario" ] ~docv:"SCENARIO"
          ~doc:"Run on this paper scenario instead of a generated database.")
  in
  let pick scenario (w : Protocol.workload) =
    match scenario with
    | Some (label, db) -> { label; workload = None; db }
    | None ->
        {
          label =
            Printf.sprintf "%s-%d (%s data, seed %d)" w.shape w.n w.regime
              w.seed;
          workload = Some w;
          db = materialize w;
        }
  in
  Term.(const pick $ scenario $ workload_term)

let config_term = Mj_cli.config_term
let make_config = Mj_cli.make_config

(* Telemetry plumbing shared by verify/optimize/explain: every record
   carries the engine configuration and the sink's GC totals; the
   caller adds command-specific fields.  Appends print a confirmation
   line so scripted runs can see where the feed went. *)
let emit_telemetry (cfg : Engine.Config.t) ~cmd ~query fields =
  match cfg.Engine.Config.telemetry with
  | None -> ()
  | Some path ->
      let record =
        Mj_obs.Telemetry.record
          ([
             ("cmd", Json.str cmd);
             ("query", Json.str query);
             ("policy",
              Json.str (Planner.policy_name cfg.Engine.Config.algo_policy));
             ("domains", Json.int cfg.Engine.Config.domains);
           ]
          @ fields
          @ Mj_obs.Telemetry.gc_fields cfg.Engine.Config.obs)
      in
      Mj_obs.Telemetry.append path record;
      Format.printf "telemetry: appended to %s@." path

(* [--trace]: the sink's spans and counters as JSONL Chrome trace
   events. *)
let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:"Write spans and counters to $(docv) as JSONL Chrome trace events.")

let write_trace obs = function
  | Some path ->
      Export.write_jsonl path obs;
      Format.printf "trace written to %s (%d events)@." path
        (List.length (Export.trace_events obs))
  | None -> ()

(* The optimizer's plan: DPccp, or DPsize with Cartesian products when
   the scheme is unconnected and one is unavoidable. *)
let optimizer_plan est d =
  match Dpccp.plan ~oracle:est d with
  | Some r -> r.Optimal.strategy
  | None -> (
      match Dpsize.plan ~allow_cp:true ~oracle:est d with
      | Some r -> r.Optimal.strategy
      | None -> failwith "no plan found")

(* ------------------------------------------------------------------ *)
(* examples                                                             *)
(* ------------------------------------------------------------------ *)

let run_examples (name, db) =
  Format.printf "Scenario %s:@.%a@.@." name Database.pp db;
  let d = Database.schemes db in
  Format.printf "Scheme: %a (connected: %b)@." Scheme.Set.pp d
    (Hypergraph.connected d);
  let all =
    Enumerate.all d
    |> List.map (fun s -> (Cost.tau db s, s))
    |> List.sort compare
  in
  Format.printf "@.Strategies by tau (%d total):@." (List.length all);
  List.iter
    (fun (c, s) ->
      Format.printf "  %-5d %s%s%s@." c (Strategy.to_string s)
        (if Strategy.is_linear s then "  [linear]" else "")
        (if Strategy.uses_cartesian s then "  [CP]" else ""))
    all;
  Format.printf "@.%a@." Theorems.pp_report (Theorems.verify db)

let examples_cmd =
  Cmd.v
    (Cmd.info "examples" ~doc:"Print a paper scenario with all strategies costed")
    Term.(const run_examples $ scenario_pos)

(* ------------------------------------------------------------------ *)
(* conditions                                                           *)
(* ------------------------------------------------------------------ *)

let run_conditions (name, db) =
  Format.printf "Scenario %s: %a@.@." name Conditions.pp_summary
    (Conditions.summarize db);
  let show_triples title ws =
    if ws <> [] then begin
      Format.printf "%s:@." title;
      List.iter (fun w -> Format.printf "  %a@." Conditions.pp_triple_witness w) ws
    end
  in
  let show_pairs title ws =
    if ws <> [] then begin
      Format.printf "%s:@." title;
      List.iter (fun w -> Format.printf "  %a@." Conditions.pp_pair_witness w) ws
    end
  in
  show_triples "C1 violations" (Conditions.violations_c1 ~limit:5 db);
  show_triples "C1' violations" (Conditions.violations_c1_strict ~limit:5 db);
  show_pairs "C2 violations" (Conditions.violations_c2 ~limit:5 db);
  show_pairs "C3 violations" (Conditions.violations_c3 ~limit:5 db);
  show_pairs "C4 violations" (Conditions.violations_c4 ~limit:5 db)

let conditions_cmd =
  Cmd.v
    (Cmd.info "conditions" ~doc:"Check C1/C1'/C2/C3/C4 with witnesses")
    Term.(const run_conditions $ scenario_pos)

(* ------------------------------------------------------------------ *)
(* verify                                                               *)
(* ------------------------------------------------------------------ *)

let run_verify { label; workload; db } config =
  let query =
    match workload with
    | None ->
        Format.printf "Scenario %s@." label;
        label
    | Some w ->
        Format.printf "%s query of %d relations, %s data, seed %d@." w.shape
          w.n w.regime w.seed;
        query_of w
  in
  let obs = Obs.make () in
  let cfg = make_config ~obs config in
  Format.printf "engine: %d domains@." cfg.Engine.Config.domains;
  let t0 = Obs.monotonic_time () in
  let report =
    Obs.span obs "verify" (fun () ->
        Theorems.verify ~obs db)
  in
  let duration_ms = (Obs.monotonic_time () -. t0) *. 1e3 in
  Format.printf "%a@." Theorems.pp_report report;
  let counter name =
    match List.assoc_opt name (Obs.counters obs) with Some v -> v | None -> 0
  in
  Format.printf "tau cache: %d hits, %d misses@."
    (counter "cost.cache_hits")
    (counter "cost.cache_misses");
  let status s = Json.str (Format.asprintf "%a" Theorems.pp_status s) in
  emit_telemetry cfg ~cmd:"verify" ~query
    [
      ("theorem1", status report.Theorems.theorem1);
      ("theorem2", status report.Theorems.theorem2);
      ("theorem3", status report.Theorems.theorem3);
      ("min_all", Json.int report.Theorems.min_all);
      ("cache_hits", Json.int (counter "cost.cache_hits"));
      ("cache_misses", Json.int (counter "cost.cache_misses"));
      ("duration_ms", Json.float duration_ms);
    ]

let verify_cmd =
  Cmd.v
    (Cmd.info "verify" ~doc:"Run the theorem validators on a database")
    Term.(const run_verify $ input_term $ config_term)

(* ------------------------------------------------------------------ *)
(* enumerate                                                            *)
(* ------------------------------------------------------------------ *)

let run_enumerate shape_name n seed list_them =
  let rng = Random.State.make [| seed |] in
  let d = List.assoc shape_name Mj_workload.Dbgen.shapes ~rng n in
  Format.printf "%s of %d relations: %a@.@." shape_name n Scheme.Set.pp d;
  Format.printf "  %-18s %d@." "all strategies"
    (Enumerate.count Enumerate.All d);
  Format.printf "  %-18s %d@." "linear" (Enumerate.count Enumerate.Linear d);
  Format.printf "  %-18s %d@." "cp-free" (Enumerate.count Enumerate.Cp_free d);
  Format.printf "  %-18s %d@." "linear cp-free"
    (Enumerate.count Enumerate.Linear_cp_free d);
  Format.printf "  %-18s %d@." "csg-cmp pairs" (Dpccp.count_csg_cmp_pairs d);
  if list_them then begin
    Format.printf "@.Strategies avoiding Cartesian products:@.";
    List.iter
      (fun s -> Format.printf "  %s@." (Strategy.to_string s))
      (Enumerate.cp_free d)
  end

let enumerate_cmd =
  let list_arg =
    Arg.(value & flag & info [ "list" ] ~doc:"Also list the cp-free strategies.")
  in
  Cmd.v
    (Cmd.info "enumerate" ~doc:"Count the strategy subspaces of a query shape")
    Term.(const run_enumerate $ shape_arg $ n_arg $ seed_arg $ list_arg)

(* ------------------------------------------------------------------ *)
(* optimize                                                             *)
(* ------------------------------------------------------------------ *)

let graceful f x =
  try f x with
  | Failure msg | Sys_error msg ->
      prerr_endline ("mjoin: " ^ msg);
      exit 1

let run_optimize (w : Protocol.workload) config trace_file =
  let db = materialize w in
  let d = Database.schemes db in
  Format.printf "%s query of %d relations, %s data: %a@.@." w.shape w.n
    w.regime Database.pp_brief db;
  let est = Estimate.of_catalog (Catalog.of_database db) in
  (* With --trace, every optimizer records into one sink: its spans stay
     separate, the search-effort counters accumulate across them.
     Telemetry also needs an active sink, for the GC totals. *)
  let telemetry_on =
    config.Mj_cli.telemetry <> None
    || (Engine.Config.of_env ()).Engine.Config.telemetry <> None
  in
  let obs =
    if trace_file <> None || telemetry_on then Obs.make () else Obs.noop
  in
  let cfg = make_config ~obs config in
  let show name = function
    | Some (r : Optimal.result) ->
        Format.printf "  %-26s est %-7d actual tau %-7d %s@." name r.cost
          (Cost.tau db r.strategy)
          (Strategy.to_string r.strategy)
    | None -> Format.printf "  %-26s -@." name
  in
  let dpsize = Dpsize.plan ~obs ~allow_cp:true ~oracle:est d in
  show "DPsize (bushy, with CP)" dpsize;
  let dpccp = Dpccp.plan ~obs ~oracle:est d in
  show "DPccp (bushy, no CP)" dpccp;
  show "Selinger (linear, no CP)" (Selinger.plan ~obs ~cp:`Never ~oracle:est d);
  show "Selinger (linear, CP ok)" (Selinger.plan ~obs ~cp:`Always ~oracle:est d);
  show "greedy GOO" (Some (Greedy.goo ~obs ~oracle:est d));
  show "smallest-first" (Some (Greedy.smallest_first ~obs ~oracle:est d));
  (if w.n <= 9 then
     match Optimal.optimum db with
     | Some r ->
         Format.printf "@.  exact tau optimum: %d with %s@." r.cost
           (Strategy.to_string r.strategy)
     | None -> ());
  (* Execute the winning plan through the unified Config → Planner →
     Engine path, so `optimize` shows what its choice actually costs. *)
  (match (match dpccp with Some r -> Some r | None -> dpsize) with
  | Some r ->
      let plan = Engine.lower cfg db r.Optimal.strategy in
      let t0 = Obs.monotonic_time () in
      let stats = Engine.execute_stats cfg db plan in
      let duration_ms = (Obs.monotonic_time () -. t0) *. 1e3 in
      Format.printf
        "@.  executed (%s lowering): %s@.    %d result rows, tau %d@."
        (Planner.policy_name cfg.Engine.Config.algo_policy)
        (Physical.to_string plan) stats.Engine.result_rows
        stats.Engine.tuples_generated;
      emit_telemetry cfg ~cmd:"optimize" ~query:(query_of w)
        [
          ("strategy", Json.str (Strategy.to_string r.Optimal.strategy));
          ("est_cost", Json.int r.Optimal.cost);
          ("tau", Json.int stats.Engine.tuples_generated);
          ("result_rows", Json.int stats.Engine.result_rows);
          ("duration_ms", Json.float duration_ms);
        ]
  | None -> ());
  if trace_file <> None then Format.printf "@.";
  write_trace obs trace_file

let optimize_cmd =
  Cmd.v
    (Cmd.info "optimize" ~doc:"Compare optimizers on a generated database")
    Term.(
      const (fun w cfg tr -> graceful (run_optimize w cfg) tr)
      $ workload_term $ config_term $ trace_arg)

(* ------------------------------------------------------------------ *)
(* space                                                                *)
(* ------------------------------------------------------------------ *)

let run_space shape_name max_n =
  let shape = List.assoc shape_name Mj_workload.Dbgen.shapes in
  let rng = Random.State.make [| 0 |] in
  let sizes = List.init (max 0 (max_n - 1)) (fun i -> i + 2) in
  let sizes = List.filter (fun n -> shape_name <> "cycle" || n >= 3) sizes in
  Format.printf "%-4s %-14s %-10s %-10s %-14s %-10s@." "n" "all" "linear"
    "cp-free" "linear-cp-free" "ccp-pairs";
  List.iter
    (fun n ->
      let d = shape ~rng n in
      Format.printf "%-4d %-14d %-10d %-10d %-14d %-10d@." n
        (Enumerate.count_all n) (Enumerate.count_linear n)
        (Enumerate.count_cp_free d)
        (Enumerate.count_linear_cp_free d)
        (Dpccp.count_csg_cmp_pairs d))
    sizes

let space_cmd =
  let max_arg =
    Arg.(value & opt int 10 & info [ "max" ] ~doc:"Largest query size.")
  in
  Cmd.v
    (Cmd.info "space" ~doc:"Search-space size table for a query shape")
    Term.(const run_space $ shape_arg $ max_arg)

(* ------------------------------------------------------------------ *)
(* plan                                                                 *)
(* ------------------------------------------------------------------ *)

let run_plan (name, db) strategy_text =
  let s =
    try Strategy.of_string strategy_text
    with Invalid_argument msg -> failwith msg
  in
  Format.printf "Scenario %s, strategy %a@.@." name Strategy.pp s;
  Format.printf "linear: %b, uses Cartesian products: %b, avoids them: %b@."
    (Strategy.is_linear s) (Strategy.uses_cartesian s)
    (Strategy.avoids_cartesian s);
  let rows = Cost.step_costs db s in
  Format.printf "@.step costs:@.";
  List.iter
    (fun (d', c) -> Format.printf "  %-24s %d@." (Format.asprintf "%a" Scheme.Set.pp d') c)
    rows;
  Format.printf "tau = %d@." (Cost.tau db s);
  (match Optimal.optimum db with
  | Some best ->
      Format.printf "tau-optimum for this database: %d (%s)@." best.cost
        (Strategy.to_string best.strategy)
  | None -> ());
  (* Execute it physically, hash joins everywhere. *)
  let module Exec = Mj_engine.Exec in
  let module Frame_engine = Mj_engine.Frame_engine in
  let module Physical = Mj_engine.Physical in
  let result, stats =
    Frame_engine.execute_plan db (Physical.of_strategy s)
  in
  Format.printf
    "@.execution (hash joins): %d result tuples, %d generated, %d probes@."
    (Relation.cardinality result)
    stats.Frame_engine.tuples_generated stats.Frame_engine.probes;
  if Strategy.is_linear s then begin
    let _, p = Exec.execute_pipelined db s in
    Format.printf "pipelined: stage outputs %s, peak buffer %d@."
      (String.concat "+" (List.map string_of_int p.Exec.emitted_per_stage))
      p.Exec.peak_buffer
  end

let plan_cmd =
  let strategy =
    Arg.(
      required
      & pos 1 (some string) None
      & info [] ~docv:"STRATEGY"
          ~doc:"Strategy in the paper's notation with * for joins, e.g. \
                '(AB * BC) * DE'.")
  in
  Cmd.v
    (Cmd.info "plan" ~doc:"Cost and execute one strategy on a scenario")
    Term.(const (fun sc st -> graceful (run_plan sc) st) $ scenario_pos $ strategy)

(* ------------------------------------------------------------------ *)
(* analyze                                                              *)
(* ------------------------------------------------------------------ *)

let read_file path =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let contents = really_input_string ic len in
  close_in ic;
  contents

let run_analyze path =
  let db =
    try Csv.parse_database (read_file path)
    with
    | Sys_error msg -> failwith msg
    | Invalid_argument msg -> failwith msg
  in
  Format.printf "Loaded %a@.@." Database.pp_brief db;
  let d = Database.schemes db in
  Format.printf "Scheme %a — connected: %b, alpha-acyclic: %b@." Scheme.Set.pp
    d (Hypergraph.connected d)
    (Gyo.is_alpha_acyclic d);
  if Database.size db <= 8 then begin
    Format.printf "@.%a@.@." Theorems.pp_report (Theorems.verify db);
    match Optimal.optimum db with
    | Some r ->
        Format.printf "Exact tau-optimum: %d with %s@." r.cost
          (Strategy.to_string r.strategy)
    | None -> ()
  end
  else begin
    (* Too large for exact tau: optimize against catalog estimates. *)
    let est = Estimate.of_catalog (Catalog.of_database db) in
    (match Dpccp.plan ~oracle:est d with
    | Some r ->
        Format.printf "DPccp plan (estimated cost %d): %s@." r.cost
          (Strategy.to_string r.strategy)
    | None -> ());
    let goo = Greedy.goo ~oracle:est d in
    Format.printf "Greedy plan (estimated cost %d): %s@." goo.cost
      (Strategy.to_string goo.strategy)
  end

let analyze_cmd =
  let file =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"FILE"
          ~doc:
            "Database text file: sections '= name' followed by a CSV block \
             (header of attribute names, then rows).")
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:"Load a database from a text file; verify and optimize it")
    Term.(const (graceful run_analyze) $ file)

(* ------------------------------------------------------------------ *)
(* query                                                                *)
(* ------------------------------------------------------------------ *)

let run_query path query_text show_dot =
  let named =
    try Csv.parse_named_database (read_file path)
    with Sys_error msg | Invalid_argument msg -> failwith msg
  in
  let q = try Mj_query.Cq.parse query_text with Invalid_argument m -> failwith m in
  let lookup pred =
    match List.assoc_opt pred named with
    | Some r -> r
    | None -> failwith (Printf.sprintf "no relation named %s in %s" pred path)
  in
  Format.printf "%s@.@." (Mj_query.Cq.to_string q);
  let db = Mj_query.Cq.instantiate q lookup in
  Format.printf "Instantiated body: %a@." Database.pp_brief db;
  let plan = Mj_query.Cq.optimize q lookup in
  Format.printf "Plan (product-free DP over estimates): %s, est. cost %d@."
    (Strategy.to_string plan.strategy)
    plan.cost;
  let result = Mj_query.Cq.evaluate ~strategy:plan.strategy q lookup in
  Format.printf "@.%d answers:@.%a@." (Relation.cardinality result) Relation.pp
    result;
  if show_dot then
    print_string (Strategy.to_dot ~costs:(Cost.cardinality_oracle db) plan.strategy)

let query_cmd =
  let file =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"FILE" ~doc:"Database text file ('= name' + CSV sections).")
  in
  let q =
    Arg.(
      required
      & pos 1 (some string) None
      & info [] ~docv:"QUERY"
          ~doc:"Conjunctive query, e.g. 'Q(x,y) :- r(x,z), s(z,y).'")
  in
  let dot =
    Arg.(value & flag & info [ "dot" ] ~doc:"Also print the plan as Graphviz.")
  in
  Cmd.v
    (Cmd.info "query" ~doc:"Run a conjunctive query against a database file")
    Term.(const (fun f qq d -> graceful (run_query f qq) d) $ file $ q $ dot)

(* ------------------------------------------------------------------ *)
(* explain                                                              *)
(* ------------------------------------------------------------------ *)

let attr_str attrs key =
  match List.assoc_opt key attrs with Some (Json.Str s) -> Some s | _ -> None

let attr_int attrs key =
  match List.assoc_opt key attrs with
  | Some (Json.Num f) -> Some (int_of_float f)
  | _ -> None

let q_error ~est ~actual =
  let e = Float.max 1.0 (float_of_int est)
  and a = Float.max 1.0 (float_of_int actual) in
  Float.max (e /. a) (a /. e)

let run_explain { label = name; db; _ } strategy_text config trace_file =
  let d = Database.schemes db in
  let est_oracle = Estimate.of_catalog (Catalog.of_database db) in
  let strategy =
    match strategy_text with
    | Some txt ->
        let s =
          try Strategy.of_string txt with Invalid_argument m -> failwith m
        in
        Scheme.Set.iter
          (fun sch ->
            if not (Scheme.Set.mem sch d) then
              failwith
                (Printf.sprintf "strategy mentions %s, not in the database"
                   (Scheme.to_string sch)))
          (Strategy.schemes s);
        s
    | None -> optimizer_plan est_oracle d
  in
  (* Estimated cardinality of every plan subtree, keyed like the span
     attributes so the tree walk below can pair est with act. *)
  let est_tbl = Hashtbl.create 16 in
  List.iter
    (fun d' ->
      Hashtbl.replace est_tbl (Mj_engine.Frame_engine.scheme_key d')
        (est_oracle d'))
    (Strategy.subtree_schemes strategy);
  let obs = Obs.make () in
  let max_q = ref 1.0 and join_steps = ref 0 in
  let steps = ref [] (* per-step telemetry, reverse display order *) in
  (* Lower under the config's policy, then execute; the tree walk below
     reads the executor's scan/join spans. *)
  let cfg = make_config ~obs config in
  let plan = Engine.lower cfg db strategy in
  let t0 = Obs.monotonic_time () in
  let stats = Engine.execute_stats cfg db plan in
  let duration_ms = (Obs.monotonic_time () -. t0) *. 1e3 in
  let summary_tail tau' =
    let fs = Option.get stats.Engine.frame in
    Format.printf
      "@.summary: %d join steps, tau=%d (est %d), result=%d rows, max \
       q-error=%.2f, dict=%d values, probes=%d (%d hits), partitions=%d@."
      !join_steps fs.Mj_engine.Frame_engine.tuples_generated tau'
      fs.Mj_engine.Frame_engine.result_rows !max_q
      fs.Mj_engine.Frame_engine.dict_size fs.Mj_engine.Frame_engine.probes
      fs.Mj_engine.Frame_engine.probe_hits
      fs.Mj_engine.Frame_engine.partitions
  in
  Format.printf "Scenario %s@.plan: %s@.lowered (%s): %s@.@." name
    (Strategy.to_string strategy)
    (Planner.policy_name cfg.Engine.Config.algo_policy)
    (Physical.to_string plan);
  (* Every query gets its acyclicity classification: cyclic queries
     carry an AGM certificate — the fractional-cover bound on the
     output that no join strategy, binary or generic, can exceed, and
     the figure the wcoj policy prices plans against — while α-acyclic
     ones name the classification GYO established (the gate to the
     Yannakakis path). *)
  (if Planner.is_cyclic d then begin
     Format.printf "classification: cyclic (GYO reduction non-empty)@.";
     match Cost.Cache.agm (Cost.Cache.create db) d with
     | Some bound ->
         Format.printf "AGM bound: %.4g rows (cyclic query, est result %d)@.@."
           bound (est_oracle d)
     | None -> Format.printf "@."
   end
   else begin
     Format.printf "classification: alpha-acyclic (GYO reduces to one edge)@.";
     (* A yann plan also shows the chosen join tree: the cost-selected
        root and the leaf-to-root semijoin (ear elimination) order. *)
     (match plan with
     | Physical.Semijoin_program rt | Physical.Ranked_enumerate (rt, _) ->
         Format.printf "join tree root: %s@.semijoin order (leaf-to-root): %s@."
           (Scheme.to_string rt.Jointree.root)
           (String.concat ", "
              (List.map
                 (fun (ear, parent) ->
                   Printf.sprintf "%s -> %s" (Scheme.to_string ear)
                     (Scheme.to_string parent))
                 rt.Jointree.elims))
     | _ -> ());
     Format.printf "@."
   end);
  let rec show indent (sp : Obs.span_tree) =
    (match sp.Obs.name with
    | ("scan" | "join" | "semijoin" | "topk") as kind ->
        let scheme =
          Option.value ~default:"?" (attr_str sp.Obs.attrs "scheme")
        in
        let actual = Option.value ~default:0 (attr_int sp.Obs.attrs "rows") in
        let label =
          match attr_str sp.Obs.attrs "algo" with
          | Some a -> Printf.sprintf "%s[%s]" kind a
          | None -> kind
        in
        let step_base =
          [
            ("kind", Json.str kind);
            ("scheme", Json.str scheme);
            ("algo",
             Json.str
               (Option.value ~default:kind (attr_str sp.Obs.attrs "algo")));
            ("ms", Json.float (sp.Obs.duration *. 1e3));
            ("act", Json.int actual);
          ]
        in
        (* A generic-join span carries its variable elimination order
           (driver attr "order"); binary spans have none. *)
        let order_sfx =
          (match attr_str sp.Obs.attrs "order" with
          | Some o -> Printf.sprintf "  order=%s" o
          | None -> "")
          (* Yannakakis spans: semijoins carry their sweep direction,
             the ranked enumerator its budget. *)
          ^ (match attr_str sp.Obs.attrs "dir" with
            | Some dir -> Printf.sprintf "  dir=%s" dir
            | None -> "")
          ^
          match attr_int sp.Obs.attrs "k" with
          | Some k -> Printf.sprintf "  k=%d" k
          | None -> ""
        in
        (match Hashtbl.find_opt est_tbl scheme with
        | Some est ->
            let q = q_error ~est ~actual in
            if kind = "join" then begin
              incr join_steps;
              if q > !max_q then max_q := q
            end;
            steps :=
              Json.Obj
                (step_base
                @ [ ("est", Json.int est); ("q_error", Json.float q) ])
              :: !steps;
            Format.printf
              "%s%-16s %-26s %8.3f ms  est=%-6d act=%-6d q-err=%.2f%s@." indent
              label scheme
              (sp.Obs.duration *. 1e3)
              est actual q order_sfx
        | None ->
            steps := Json.Obj step_base :: !steps;
            Format.printf "%s%-16s %-26s %8.3f ms  act=%-6d%s@." indent label
              scheme
              (sp.Obs.duration *. 1e3)
              actual order_sfx)
    | other -> Format.printf "%s%s  %8.3f ms@." indent other (sp.Obs.duration *. 1e3));
    List.iter (show (indent ^ "  ")) sp.Obs.children
  in
  List.iter (show "") (Obs.trace obs);
  let est_tau =
    List.fold_left
      (fun acc d' ->
        if Scheme.Set.cardinal d' >= 2 then acc + est_oracle d' else acc)
      0
      (Strategy.subtree_schemes strategy)
  in
  summary_tail est_tau;
  emit_telemetry cfg ~cmd:"explain" ~query:name
    [
      ("strategy", Json.str (Strategy.to_string strategy));
      ("plan", Json.str (Physical.to_string plan));
      ("tau", Json.int stats.Engine.tuples_generated);
      ("est_tau", Json.int est_tau);
      ("result_rows", Json.int stats.Engine.result_rows);
      ("join_steps", Json.int !join_steps);
      ("max_q_error", Json.float !max_q);
      ("duration_ms", Json.float duration_ms);
      ("steps", Json.Arr (List.rev !steps));
    ];
  write_trace obs trace_file

let explain_cmd =
  let strategy =
    Arg.(
      value
      & opt (some string) None
      & info [ "strategy" ] ~docv:"STRATEGY"
          ~doc:
            "Execute this strategy (paper notation, e.g. '(AB * BC) * DE') \
             instead of the optimizer's plan.")
  in
  Cmd.v
    (Cmd.info "explain"
       ~doc:
         "EXPLAIN ANALYZE: optimize (or take --strategy), execute with \
          tracing, print the per-step tree with est vs actual cardinality \
          and Q-error")
    Term.(
      const (fun input st cfg tr -> graceful (run_explain input st cfg) tr)
      $ input_term $ strategy $ config_term $ trace_arg)

(* ------------------------------------------------------------------ *)
(* topk                                                                 *)
(* ------------------------------------------------------------------ *)

(* Ranked enumeration: the k lexicographically least tuples of the full
   join, computed on the Yannakakis path without materializing the
   join.  Only α-acyclic queries qualify ([Planner.lower_ranked]); a
   cyclic input is a loud error, not a silent fallback to a full
   evaluation. *)
let run_topk { label = name; db; _ } k config trace_file =
  let d = Database.schemes db in
  let obs = Obs.make () in
  let cfg =
    (* The ranked path is the yann lowering by construction; --policy is
       still parsed (shared config block) but does not change it. *)
    make_config ~obs { config with Mj_cli.policy = Some Planner.Yannakakis }
  in
  let strategy = Strategy.left_deep (Scheme.Set.elements d) in
  let plan =
    match Planner.lower_ranked db strategy ~k with
    | Some plan -> plan
    | None ->
        failwith
          (Format.asprintf
             "query %a is cyclic: ranked enumeration needs an alpha-acyclic \
              query (the GYO reduction must empty); evaluate it with --policy \
              wcoj instead"
             Scheme.Set.pp d)
  in
  Format.printf "Scenario %s@.lowered (yann): %s@.@." name
    (Physical.to_string plan);
  let t0 = Obs.monotonic_time () in
  let result, stats = Engine.execute_plan cfg db plan in
  let duration_ms = (Obs.monotonic_time () -. t0) *. 1e3 in
  Format.printf "top-%d (lexicographic, %.3f ms):@.%a@." k duration_ms
    Relation.pp result;
  (* The output-sensitivity receipt: probes/scans bounded by the trie
     prefix the k answers touch, not by the full join. *)
  let fs = Option.get stats.Engine.frame in
  Format.printf "@.rows=%d, tau=%d, probes=%d, dict=%d values@."
    stats.Engine.result_rows stats.Engine.tuples_generated
    fs.Mj_engine.Frame_engine.probes fs.Mj_engine.Frame_engine.dict_size;
  emit_telemetry cfg ~cmd:"topk" ~query:name
    [
      ("plan", Json.str (Physical.to_string plan));
      ("k", Json.int k);
      ("tau", Json.int stats.Engine.tuples_generated);
      ("result_rows", Json.int stats.Engine.result_rows);
      ("duration_ms", Json.float duration_ms);
    ];
  write_trace obs trace_file

let topk_cmd =
  let limit =
    Arg.(
      value
      & opt int 10
      & info [ "limit"; "k" ] ~docv:"K"
          ~doc:"How many tuples to enumerate (the k of top-k).")
  in
  Cmd.v
    (Cmd.info "topk"
       ~doc:
         "Ranked enumeration: stream the K lexicographically least tuples \
          of the join of an alpha-acyclic query, without materializing the \
          full join (errors on cyclic queries)")
    Term.(
      const (fun input k cfg tr -> graceful (run_topk input k cfg) tr)
      $ input_term $ limit $ config_term $ trace_arg)

(* ------------------------------------------------------------------ *)
(* stats                                                                *)
(* ------------------------------------------------------------------ *)

(* Aggregate a telemetry JSONL feed into registry metrics: one record
   counter per command, quantile histograms over durations, per-step
   timings, Q-errors and result sizes. *)
let stats_of_telemetry obs path =
  let records = Mj_obs.Telemetry.read_lines path in
  let num j = match j with Json.Num v -> Some v | _ -> None in
  let field k r = Option.bind (Json.member k r) num in
  List.iter
    (fun r ->
      Obs.add obs "telemetry.records" 1;
      (match Json.member "cmd" r with
      | Some (Json.Str cmd) -> Obs.add obs ("telemetry.cmd." ^ cmd) 1
      | _ -> ());
      Option.iter
        (Obs.observe (Obs.histogram obs "telemetry.duration.ms"))
        (field "duration_ms" r);
      Option.iter
        (Obs.observe (Obs.histogram obs "telemetry.q_error"))
        (field "max_q_error" r);
      Option.iter
        (Obs.observe (Obs.histogram obs "telemetry.result_rows"))
        (field "result_rows" r);
      match Json.member "steps" r with
      | Some (Json.Arr steps) ->
          List.iter
            (fun s ->
              Option.iter
                (Obs.observe (Obs.histogram obs "telemetry.step.ms"))
                (field "ms" s);
              Option.iter
                (Obs.observe (Obs.histogram obs "telemetry.step.q_error"))
                (field "q_error" s))
            steps
      | _ -> ())
    records;
  List.length records

let run_stats { label = name; db; _ } repeat prometheus from_file config =
  let obs = Obs.make () in
  match from_file with
  | Some path ->
      let nrecords = stats_of_telemetry obs path in
      if prometheus then print_string (Export.prometheus_string obs)
      else begin
        Format.printf "%d telemetry record(s) from %s@." nrecords path;
        Export.render_metrics Format.std_formatter obs
      end
  | None ->
      let cfg = make_config ~obs config in
      let strategy =
        optimizer_plan
          (Estimate.of_catalog (Catalog.of_database db))
          (Database.schemes db)
      in
      let plan = Engine.lower cfg db strategy in
      let repeat = max 1 repeat in
      for _ = 1 to repeat do
        ignore (Engine.execute_stats cfg db plan)
      done;
      if prometheus then print_string (Export.prometheus_string obs)
      else begin
        Format.printf "%s: %d run(s), %s lowering, %d domains@." name repeat
          (Planner.policy_name cfg.Engine.Config.algo_policy)
          cfg.Engine.Config.domains;
        Export.render_metrics Format.std_formatter obs
      end

let stats_cmd =
  let repeat =
    Arg.(
      value & opt int 20
      & info [ "repeat" ] ~docv:"N"
          ~doc:"Execute the plan $(docv) times so quantiles are populated.")
  in
  let prometheus =
    Arg.(
      value & flag
      & info [ "prometheus" ]
          ~doc:"Print Prometheus text exposition instead of the table.")
  in
  let from_file =
    Arg.(
      value
      & opt (some non_dir_file) None
      & info [ "from" ] ~docv:"FILE"
          ~doc:
            "Aggregate an existing telemetry JSONL sidecar instead of \
             executing anything.")
  in
  Cmd.v
    (Cmd.info "stats"
       ~doc:
         "Execute a plan repeatedly and print registry metrics with \
          p50/p90/p95/p99 quantiles (or aggregate a telemetry file); \
          optionally as Prometheus text exposition")
    Term.(
      const (fun input repeat prom from cfg ->
          graceful (run_stats input repeat prom from) cfg)
      $ input_term $ repeat $ prometheus $ from_file $ config_term)

(* ------------------------------------------------------------------ *)
(* bench-diff                                                           *)
(* ------------------------------------------------------------------ *)

module Bench_diff = Mj_benchkit.Bench_diff

let run_bench_diff old_path new_path threshold inject out =
  let old_doc = Bench_diff.load old_path in
  let new_doc =
    match (new_path, inject) with
    | _, Some pct ->
        (* Synthetic regression: inflate the old file's timings and diff
           against itself — certifies the gate trips. *)
        Bench_diff.inflate ~pct old_doc
    | Some path, None -> Bench_diff.load path
    | None, None ->
        failwith "bench-diff: provide NEW.json or --inject PCT"
  in
  let report = Bench_diff.diff ~threshold old_doc new_doc in
  let text =
    Format.asprintf "%a" (Bench_diff.pp_report ~threshold) report
  in
  print_string text;
  (match out with
  | Some path ->
      Out_channel.with_open_text path (fun oc ->
          Out_channel.output_string oc text)
  | None -> ());
  if report.Bench_diff.regressions <> [] then exit 1

let bench_diff_cmd =
  let old_arg =
    Arg.(
      required
      & pos 0 (some non_dir_file) None
      & info [] ~docv:"OLD.json" ~doc:"Baseline bench file.")
  in
  let new_arg =
    Arg.(
      value
      & pos 1 (some non_dir_file) None
      & info [] ~docv:"NEW.json"
          ~doc:"Candidate bench file (omit with $(b,--inject)).")
  in
  let threshold =
    Arg.(
      value & opt float 25.0
      & info [ "threshold" ] ~docv:"PCT"
          ~doc:
            "Fail (exit 1) when any matched timing field regresses by more \
             than $(docv) percent.")
  in
  let inject =
    Arg.(
      value
      & opt (some float) None
      & info [ "inject" ] ~docv:"PCT"
          ~doc:
            "Instead of reading NEW.json, synthesize it by inflating every \
             timing in OLD.json by $(docv) percent — a self-check that the \
             gate detects regressions.")
  in
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "out" ] ~docv:"FILE" ~doc:"Also write the diff report to $(docv).")
  in
  Cmd.v
    (Cmd.info "bench-diff"
       ~doc:
         "Regression gate over BENCH_*.json files: match rows on identity \
          fields, compare *_ms timings against a percentage threshold, exit \
          non-zero on regression")
    Term.(
      const (fun o n t i out -> graceful (run_bench_diff o n t i) out)
      $ old_arg $ new_arg $ threshold $ inject $ out)

(* ------------------------------------------------------------------ *)
(* fuzz                                                                 *)
(* ------------------------------------------------------------------ *)

module Gen = Mj_check.Gen
module Check = Mj_check.Check
module Fuzz = Mj_check.Fuzz

let write_repro dir index repro =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let path = Filename.concat dir (Printf.sprintf "case-%d.repro" index) in
  Out_channel.with_open_text path (fun oc ->
      Out_channel.output_string oc (Fuzz.repro_to_string repro));
  path

let run_fuzz_self_test () =
  match Fuzz.self_test () with
  | Ok msg -> Format.printf "self-test passed: %s@." msg
  | Error msg -> failwith ("self-test failed: " ^ msg)

let run_fuzz_replay file =
  let contents = In_channel.with_open_text file In_channel.input_all in
  match Fuzz.repro_of_string contents with
  | Error msg -> failwith (Printf.sprintf "%s: %s" file msg)
  | Ok r -> (
      match Fuzz.replay r with
      | Ok msg -> Format.printf "%s: %s@." file msg
      | Error msg -> failwith (Printf.sprintf "%s: %s" file msg))

let run_fuzz_campaign seed cases max_n out_dir =
  Format.printf "fuzzing: %d cases, seed %d, up to %d relations@." cases seed
    max_n;
  let progress i d = function
    | Check.Pass ->
        if (i + 1) mod 25 = 0 || i + 1 = cases then
          Format.printf "  %d/%d cases, last %a@." (i + 1) cases Gen.pp d
    | Check.Fail f ->
        Format.printf "  case %d (%a) FAILED: %a@." i Gen.pp d Check.pp_failure
          f
  in
  let failures = Fuzz.campaign ~progress ~max_n ~seed ~cases () in
  match failures with
  | [] -> Format.printf "all %d cases passed@." cases
  | _ ->
      List.iter
        (fun (i, _, dm, fm) ->
          let path =
            write_repro out_dir i
              { Fuzz.descriptor = dm; failpoints = ""; expect = Fuzz.Expect_fail }
          in
          Format.printf "case %d minimized to %a (%a)@.  repro written to %s@."
            i Gen.pp dm Check.pp_failure fm path)
        failures;
      failwith
        (Printf.sprintf "%d of %d cases failed" (List.length failures) cases)

let fuzz_cmd =
  let seed =
    Arg.(
      value & opt int 0
      & info [ "seed" ] ~docv:"N"
          ~doc:"Campaign seed: case $(i,i) is derived from (seed, i) alone.")
  in
  let cases =
    Arg.(
      value & opt int 100
      & info [ "cases" ] ~docv:"N" ~doc:"Number of cases to run.")
  in
  let max_n =
    Arg.(
      value & opt int 5
      & info [ "max-n" ] ~docv:"N"
          ~doc:
            "Largest database, in relations.  At the default 5 every case \
             also gets the exhaustive theorem-postcondition check.")
  in
  let out_dir =
    Arg.(
      value & opt string "_fuzz"
      & info [ "out" ] ~docv:"DIR"
          ~doc:"Directory for minimized repro files (created on demand).")
  in
  let replay =
    Arg.(
      value
      & opt (some non_dir_file) None
      & info [ "replay" ] ~docv:"FILE"
          ~doc:
            "Replay a repro file instead of fuzzing; succeeds iff the \
             outcome matches the file's $(b,expect=) line.")
  in
  let self_test =
    Arg.(
      value & flag
      & info [ "self-test" ]
          ~doc:
            "Certify the harness catches bugs: plant each mutation (the \
             lossy hash join, the lossy yann semijoin, the skipped \
             root sort, the stale serve plan, the off-by-one product \
             rule of the τ cache, the frame counter's lost message and \
             unsummed merge, and the parallel join's lost morsel), \
             require detection, and require shrinking to at most 4 \
             relations.  The lost morsel is reported as skipped where \
             the pool grants one worker.")
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:"Differential/metamorphic fuzzing of the whole engine matrix")
    Term.(
      const (fun seed cases max_n out_dir replay self_test ->
          graceful
            (fun () ->
              if self_test then run_fuzz_self_test ()
              else
                match replay with
                | Some file -> run_fuzz_replay file
                | None -> run_fuzz_campaign seed cases max_n out_dir)
            ())
      $ seed $ cases $ max_n $ out_dir $ replay $ self_test)

(* ------------------------------------------------------------------ *)
(* serve                                                                *)
(* ------------------------------------------------------------------ *)

(* The MJ_SERVE_* environment is read here, in the binary, by the
   library's one variable reader, so a malformed value fails naming
   itself as MJ_DOMAINS does.  Precedence: flag > MJ_SERVE_* > built-in
   default. *)
let serve_env_int name =
  Engine.Config.env_var name ~expect:"an integer" int_of_string_opt

let run_serve listen queue_cap timeout_ms plan_cache config =
  let pick flag env default =
    match flag with
    | Some v -> v
    | None -> ( match serve_env_int env with Some v -> v | None -> default)
  in
  let queue_cap = pick queue_cap "MJ_SERVE_QUEUE_CAP" 64 in
  let timeout_ms = pick timeout_ms "MJ_SERVE_TIMEOUT_MS" 10_000 in
  let plan_cache = pick plan_cache "MJ_SERVE_PLAN_CACHE" 128 in
  let listen =
    match listen with
    | Some _ -> listen
    | None -> Sys.getenv_opt "MJ_SERVE_LISTEN"
  in
  let cfg = make_config config in
  let t =
    Mj_serve.Serve.create ~queue_cap ~timeout_ms ~plan_cache_cap:plan_cache
      ~cfg ()
  in
  (* Clean drain: SIGTERM/SIGINT let the in-flight batch finish, then
     the serve loop returns and the process exits 0. *)
  let stop _ = Mj_serve.Serve.request_stop t in
  (try Sys.set_signal Sys.sigterm (Sys.Signal_handle stop)
   with Invalid_argument _ | Sys_error _ -> ());
  (try Sys.set_signal Sys.sigint (Sys.Signal_handle stop)
   with Invalid_argument _ | Sys_error _ -> ());
  match listen with
  | None ->
      (* stdout is the response stream, so the banner goes to stderr. *)
      Printf.eprintf
        "mjoin serve: NDJSON on stdin (queue-cap %d, timeout %d ms, plan \
         cache %d)\n\
         %!"
        queue_cap timeout_ms plan_cache;
      Mj_serve.Serve.serve_fd t Unix.stdin Unix.stdout;
      Printf.eprintf "mjoin serve: drained\n%!"
  | Some spec -> (
      match Mj_serve.Serve.sockaddr_of_listen spec with
      | Error msg -> failwith msg
      | Ok addr ->
          Printf.eprintf
            "mjoin serve: listening on %s (queue-cap %d, timeout %d ms)\n%!"
            spec queue_cap timeout_ms;
          Mj_serve.Serve.listen_and_serve t addr;
          Printf.eprintf "mjoin serve: drained\n%!")

let serve_cmd =
  let listen =
    Arg.(
      value
      & opt (some string) None
      & info [ "listen" ] ~docv:"ADDR"
          ~doc:
            "Accept connections instead of serving stdin: 'unix:PATH' for \
             a Unix-domain socket, 'HOST:PORT' or 'PORT' for TCP.  \
             Default: $(b,MJ_SERVE_LISTEN), else stdin/stdout.")
  in
  let queue_cap =
    Arg.(
      value
      & opt (some int) None
      & info [ "queue-cap" ] ~docv:"N"
          ~doc:
            "Admission-control queue depth: requests beyond $(docv) \
             in-flight queries are shed with an 'overloaded' response.  \
             Default: $(b,MJ_SERVE_QUEUE_CAP), else 64.")
  in
  let timeout_ms =
    Arg.(
      value
      & opt (some int) None
      & info [ "timeout-ms" ] ~docv:"MS"
          ~doc:
            "Per-request deadline: a request that cannot start executing \
             within $(docv) milliseconds answers with a structured \
             'timeout' error.  Default: $(b,MJ_SERVE_TIMEOUT_MS), else \
             10000.")
  in
  let plan_cache =
    Arg.(
      value
      & opt (some int) None
      & info [ "plan-cache" ] ~docv:"N"
          ~doc:
            "Bounded LRU plan-cache capacity (lowered plans keyed on \
             workload, strategy, policy and stats epoch).  \
             Default: $(b,MJ_SERVE_PLAN_CACHE), else 128.")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Long-running query daemon: newline-delimited JSON requests over \
          stdin or a socket, warm dictionaries/indexes/plan cache across \
          queries, admission control and graceful drain")
    Term.(
      const (fun listen qc tm pc cfg ->
          graceful (fun () -> run_serve listen qc tm pc cfg) ())
      $ listen $ queue_cap $ timeout_ms $ plan_cache $ config_term)

(* ------------------------------------------------------------------ *)

let () =
  let doc = "strategies for multiple joins — reproduction toolbox" in
  (* Resolve the environment exactly once per process, before any
     subcommand runs: this registers the MJ_DOMAINS default with the
     pool, so subcommands without engine flags (examples, plan,
     analyze, ...) keep their historical env-driven behavior.  A
     malformed MJ_FAILPOINTS must die cleanly here, not as an uncaught
     exception. *)
  (try ignore (Engine.Config.of_env ())
   with Failure msg ->
     prerr_endline ("mjoin: " ^ msg);
     exit 1);
  let info = Cmd.info "mjoin" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [ examples_cmd; conditions_cmd; verify_cmd; enumerate_cmd;
            optimize_cmd; space_cmd; analyze_cmd; plan_cmd; query_cmd;
            explain_cmd; topk_cmd; stats_cmd; bench_diff_cmd; fuzz_cmd;
            serve_cmd ]))

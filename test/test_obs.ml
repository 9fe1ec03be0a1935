(* Tests for the observability layer: the JSON printer/parser
   round-trips, spans nest (and survive exceptions) under a
   deterministic clock, sink counters reproduce the engine's
   [Frame_engine.stats] on a fixed scenario, the JSONL exporter's output
   matches golden lines and re-parses line by line, and the optimizer
   search-effort counters agree with the closed-form pair counts. *)

open Mj_relation
open Mj_hypergraph
open Multijoin
open Mj_engine
open Mj_obs
module Scenarios = Mj_workload.Scenarios

(* A clock returning 0.0, 1.0, 2.0, … — [Obs.make] consumes the first
   tick as the epoch, so the first span starts at 1.0. *)
let ticking () =
  let t = ref (-1.0) in
  fun () ->
    t := !t +. 1.0;
    !t

(* Golden fixtures disable GC accounting so span attributes stay
   byte-stable across runs and compiler versions. *)
let fixed_trace () =
  let obs = Obs.make ~clock:(ticking ()) ~gc:false () in
  Obs.span obs ~attrs:[ ("k", Json.str "v") ] "outer" (fun () ->
      Obs.span obs "inner" (fun () -> ()));
  Obs.add obs "widgets" 3;
  obs

(* ------------------------------------------------------------------ *)
(* Json                                                                 *)
(* ------------------------------------------------------------------ *)

let sample =
  Json.Obj
    [
      ("null", Json.Null);
      ("flag", Json.bool true);
      ("n", Json.int 42);
      ("x", Json.float 2.5);
      ("s", Json.str "a \"quote\", a \\, a \ttab and a \nnewline");
      ("arr", Json.Arr [ Json.int (-1); Json.Null; Json.str "" ]);
      ("nested", Json.Obj [ ("deep", Json.Arr [ Json.Obj [] ]) ]);
    ]

let test_json_roundtrip () =
  let s = Json.to_string sample in
  Alcotest.(check string)
    "print-parse-print is stable" s
    (Json.to_string (Json.of_string s))

let test_json_parser_accepts_standard () =
  let t = Json.of_string {|  {"a": [1, 2.5e2, -3], "b": "A\n"}  |} in
  Alcotest.(check (option string))
    "unicode escape decoded"
    (Some "A\n")
    (match Json.member "b" t with Some (Json.Str s) -> Some s | _ -> None);
  Alcotest.(check bool)
    "exponent parsed" true
    (Json.member "a" t = Some (Json.Arr [ Json.int 1; Json.int 250; Json.int (-3) ]))

let test_json_parser_rejects_garbage () =
  List.iter
    (fun bad ->
      Alcotest.(check (option string))
        (Printf.sprintf "rejects %S" bad) None
        (Option.map Json.to_string (Json.of_string_opt bad)))
    [ ""; "{"; "[1,]"; "{\"a\":1} trailing"; "nul"; "\"unterminated" ]

(* ------------------------------------------------------------------ *)
(* Spans                                                                *)
(* ------------------------------------------------------------------ *)

let test_span_nesting () =
  let obs = fixed_trace () in
  match Obs.trace obs with
  | [ outer ] ->
      Alcotest.(check string) "root name" "outer" outer.Obs.name;
      Alcotest.(check (float 1e-9)) "root start" 1.0 outer.Obs.start;
      Alcotest.(check (float 1e-9)) "root duration" 3.0 outer.Obs.duration;
      Alcotest.(check bool)
        "root attrs" true
        (outer.Obs.attrs = [ ("k", Json.str "v") ]);
      (match outer.Obs.children with
      | [ inner ] ->
          Alcotest.(check string) "child name" "inner" inner.Obs.name;
          Alcotest.(check (float 1e-9)) "child start" 2.0 inner.Obs.start;
          Alcotest.(check (float 1e-9)) "child duration" 1.0 inner.Obs.duration
      | kids ->
          Alcotest.failf "expected one child, got %d" (List.length kids))
  | roots -> Alcotest.failf "expected one root, got %d" (List.length roots)

let test_span_exception_safe () =
  let obs = Obs.make ~clock:(ticking ()) () in
  (try
     Obs.span obs "boom" (fun () ->
         Obs.span obs "inner" (fun () -> failwith "kaboom"))
   with Failure _ -> ());
  match Obs.trace obs with
  | [ { Obs.name = "boom"; duration; children = [ inner ]; _ } ] ->
      Alcotest.(check (float 1e-9)) "outer closed" 3.0 duration;
      Alcotest.(check (float 1e-9)) "inner closed" 1.0 inner.Obs.duration
  | _ -> Alcotest.fail "span tree corrupted by exception"

let test_event_and_set_attr () =
  let obs = Obs.make ~clock:(ticking ()) () in
  Obs.span obs "region" (fun () ->
      Obs.event obs ~attrs:[ ("i", Json.int 7) ] "tick";
      Obs.set_attr obs "rows" (Json.int 99));
  match Obs.trace obs with
  | [ { Obs.attrs; children = [ ev ]; _ } ] ->
      Alcotest.(check bool)
        "late attr attached" true
        (List.assoc_opt "rows" attrs = Some (Json.int 99));
      Alcotest.(check string) "event recorded" "tick" ev.Obs.name;
      Alcotest.(check (float 1e-9)) "event has no duration" 0.0 ev.Obs.duration
  | _ -> Alcotest.fail "expected one root with one event child"

(* ------------------------------------------------------------------ *)
(* Counters and registries                                              *)
(* ------------------------------------------------------------------ *)

let test_counter_semantics () =
  let reg = Obs.registry () in
  let a = Obs.reg_counter reg "a" in
  let a' = Obs.reg_counter reg "a" in
  let b = Obs.reg_counter reg "b" in
  Obs.incr a 2;
  Obs.incr a' 3;
  Obs.record_max b 7;
  Obs.record_max b 4;
  Alcotest.(check int) "registration is idempotent" 5 (Obs.value a);
  Alcotest.(check int) "record_max keeps the max" 7 (Obs.value b);
  Alcotest.(check (list (pair string int)))
    "registration order preserved"
    [ ("a", 5); ("b", 7) ]
    (Obs.counter_list reg)

let test_noop_sink () =
  Alcotest.(check bool) "noop disabled" false (Obs.enabled Obs.noop);
  Alcotest.(check bool) "active enabled" true (Obs.enabled (Obs.make ()));
  let c = Obs.counter Obs.noop "ghost" in
  Obs.incr c 5;
  Obs.add Obs.noop "ghost" 5;
  Obs.span Obs.noop "ghost" (fun () -> ());
  Alcotest.(check (list (pair string int)))
    "noop records nothing" [] (Obs.counters Obs.noop);
  Alcotest.(check bool) "noop has no trace" true (Obs.trace Obs.noop = [])

let test_merge_registry () =
  let obs = Obs.make () in
  Obs.add obs "shared" 1;
  let reg = Obs.registry () in
  Obs.incr (Obs.reg_counter reg "shared") 2;
  Obs.incr (Obs.reg_counter reg "fresh") 4;
  Obs.observe (Obs.reg_histogram reg "h") 1.5;
  Obs.merge_registry obs reg;
  Alcotest.(check (option int))
    "existing counter folded" (Some 3)
    (List.assoc_opt "shared" (Obs.counters obs));
  Alcotest.(check (option int))
    "new counter imported" (Some 4)
    (List.assoc_opt "fresh" (Obs.counters obs));
  match List.assoc_opt "h" (Obs.histograms obs) with
  | Some h ->
      Alcotest.(check int) "histogram count merged" 1 h.Obs.count;
      Alcotest.(check (float 1e-9)) "histogram sum merged" 1.5 h.Obs.sum
  | None -> Alcotest.fail "histogram not merged"

(* ------------------------------------------------------------------ *)
(* Engine integration: sink counters = the engine's stats              *)
(* ------------------------------------------------------------------ *)

let exec_with_sink () =
  let obs = Obs.make () in
  let plan = Physical.of_strategy (Strategy.of_string "AB * BC") in
  let _, stats = Frame_engine.execute_plan ~obs Scenarios.example1 plan in
  (obs, stats)

let test_counters_match_stats () =
  let obs, stats = exec_with_sink () in
  let v name =
    match List.assoc_opt name (Obs.counters obs) with
    | Some n -> n
    | None -> Alcotest.failf "counter %s missing from sink" name
  in
  Alcotest.(check int) "generated" stats.Frame_engine.tuples_generated
    (v "exec.tuples_generated");
  Alcotest.(check int) "dictionary" stats.Frame_engine.dict_size
    (v "frame.dict_size");
  Alcotest.(check int) "hash probes" stats.Frame_engine.probes
    (v "frame.probes");
  Alcotest.(check int) "probe hits" stats.Frame_engine.probe_hits
    (v "frame.probe_hits");
  Alcotest.(check int) "partitions" stats.Frame_engine.partitions
    (v "frame.partitions");
  Alcotest.(check int) "morsels" stats.Frame_engine.morsels
    (v "frame.morsels");
  Alcotest.(check int) "sorted rows" stats.Frame_engine.sorted_rows
    (v "frame.sorted_rows");
  (* And the strategy's tau really is what the counter holds. *)
  Alcotest.(check int) "generated = tau"
    (Cost.tau Scenarios.example1 (Strategy.of_string "AB * BC"))
    (v "exec.tuples_generated")

let test_execute_trace_shape () =
  let obs, _ = exec_with_sink () in
  match Obs.trace obs with
  | [ { Obs.name = "execute-frame"; children = [ join ]; _ } ] ->
      Alcotest.(check string) "root join span" "join" join.Obs.name;
      Alcotest.(check int) "two scans under the join" 2
        (List.length join.Obs.children);
      Alcotest.(check bool)
        "join output cardinality recorded" true
        (List.assoc_opt "rows" join.Obs.attrs = Some (Json.int 10))
  | _ -> Alcotest.fail "expected execute-frame > join > [scan; scan]"

(* ------------------------------------------------------------------ *)
(* Exporters                                                            *)
(* ------------------------------------------------------------------ *)

let golden_lines =
  [
    {|{"name":"thread_name","ph":"M","pid":1,"tid":1,"args":{"name":"main"}}|};
    {|{"name":"outer","cat":"mjoin","ph":"X","pid":1,"tid":1,"ts":1000000,"dur":3000000,"args":{"k":"v"}}|};
    {|{"name":"inner","cat":"mjoin","ph":"X","pid":1,"tid":1,"ts":2000000,"dur":1000000,"args":{}}|};
    {|{"name":"widgets","ph":"C","pid":1,"tid":1,"ts":0,"args":{"value":3}}|};
    {|{"name":"span.inner.ms","ph":"C","pid":1,"tid":1,"ts":0,"args":{"count":1,"sum":1000,"min":1000,"max":1000,"p50":1000,"p90":1000,"p95":1000,"p99":1000}}|};
    {|{"name":"span.outer.ms","ph":"C","pid":1,"tid":1,"ts":0,"args":{"count":1,"sum":3000,"min":3000,"max":3000,"p50":3000,"p90":3000,"p95":3000,"p99":3000}}|};
  ]

let test_jsonl_golden () =
  Alcotest.(check (list string))
    "exported lines match golden" golden_lines
    (Export.jsonl_lines (fixed_trace ()))

let test_jsonl_lines_parse () =
  (* A real execution trace: every exported line must be valid JSON
     with the Chrome-trace phase field. *)
  let obs, _ = exec_with_sink () in
  let lines = Export.jsonl_lines obs in
  Alcotest.(check bool) "trace is non-trivial" true (List.length lines > 5);
  List.iter
    (fun line ->
      let t = Json.of_string line in
      match Json.member "ph" t with
      | Some (Json.Str ("X" | "C" | "M")) -> ()
      | _ -> Alcotest.failf "line lacks a trace phase: %s" line)
    lines

let test_write_jsonl_file () =
  let obs, _ = exec_with_sink () in
  let path = Filename.temp_file "mj_obs_test" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Export.write_jsonl path obs;
      let ic = open_in path in
      let lines = ref [] in
      (try
         while true do
           lines := input_line ic :: !lines
         done
       with End_of_file -> close_in ic);
      Alcotest.(check (list string))
        "file contents = jsonl_lines"
        (Export.jsonl_lines obs)
        (List.rev !lines))

let contains_sub haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  go 0

let test_render_smoke () =
  let s = Export.to_string (exec_with_sink () |> fst) in
  List.iter
    (fun needle ->
      Alcotest.(check bool)
        (Printf.sprintf "render mentions %s" needle)
        true (contains_sub s needle))
    [ "execute"; "join"; "scan"; "counters:"; "exec.tuples_generated" ]

(* ------------------------------------------------------------------ *)
(* Optimizer search-effort counters                                     *)
(* ------------------------------------------------------------------ *)

let oracle ss = 1 + (2 * Scheme.Set.cardinal ss)

let test_dpccp_pair_counter () =
  let d = Querygraph.chain 6 in
  let obs = Obs.make () in
  (match Mj_optimizer.Dpccp.plan ~obs ~oracle d with
  | Some _ -> ()
  | None -> Alcotest.fail "chain is connected");
  Alcotest.(check (option int))
    "pairs_inspected = Ono-Lohman count"
    (Some (Mj_optimizer.Dpccp.count_csg_cmp_pairs d))
    (List.assoc_opt "opt.pairs_inspected" (Obs.counters obs))

let test_dpsize_pair_counter () =
  let d = Querygraph.star 5 in
  let obs = Obs.make () in
  (match Mj_optimizer.Dpsize.plan ~obs ~oracle d with
  | Some _ -> ()
  | None -> Alcotest.fail "star is connected");
  Alcotest.(check (option int))
    "pairs_inspected = pairs_considered"
    (Some (Mj_optimizer.Dpsize.pairs_considered d))
    (List.assoc_opt "opt.pairs_inspected" (Obs.counters obs));
  Alcotest.(check bool)
    "dpsize span recorded" true
    (List.exists (fun s -> s.Obs.name = "dpsize") (Obs.trace obs))

(* ------------------------------------------------------------------ *)
(* Quantile histograms vs a sorted-array oracle                          *)
(* ------------------------------------------------------------------ *)

(* Nearest-rank quantile over the raw samples: the histogram must land
   in [oracle, oracle * (1 + 1/16)] because it returns the upper bound
   of a log bucket with 16 linear sub-buckets per octave (clamped to
   the observed min/max). *)
let oracle_quantile xs q =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  let rank = int_of_float (Float.ceil (q *. float_of_int n)) in
  a.(max 0 (min (n - 1) (rank - 1)))

let positive_samples =
  QCheck.(list_of_size Gen.(int_range 1 200) (map Float.abs (pos_float)))

let check_quantiles ~name xs (h : Obs.histogram) =
  List.iter
    (fun q ->
      let o = oracle_quantile xs q in
      let v = Obs.quantile h q in
      if not (o <= v && v <= o *. 1.07) then
        QCheck.Test.fail_reportf
          "%s: q=%.2f oracle=%.17g histo=%.17g (ratio %.5f)" name q o v
          (v /. o))
    [ 0.5; 0.9; 0.95; 0.99 ]

let qcheck_quantile_oracle =
  QCheck.Test.make ~count:300 ~name:"histogram quantiles track sorted oracle"
    positive_samples (fun xs ->
      QCheck.assume (xs <> [] && List.for_all (fun x -> x > 0.0) xs);
      let reg = Obs.registry () in
      let h = Obs.reg_histogram reg "q" in
      List.iter (Obs.observe h) xs;
      check_quantiles ~name:"direct" xs h;
      true)

let qcheck_merge_of_shards =
  (* Sharding the samples across sinks and merging must give the same
     counts and quantiles as observing everything in one histogram:
     merges are exact bucket-wise sums. *)
  QCheck.Test.make ~count:300 ~name:"merge of shards = shard of merges"
    QCheck.(pair positive_samples (int_range 1 5))
    (fun (xs, nshards) ->
      QCheck.assume (xs <> [] && List.for_all (fun x -> x > 0.0) xs);
      let whole = Obs.registry () in
      let hw = Obs.reg_histogram whole "h" in
      List.iter (Obs.observe hw) xs;
      let target = Obs.make () in
      let shards = Array.init nshards (fun _ -> Obs.registry ()) in
      List.iteri
        (fun i x ->
          Obs.observe (Obs.reg_histogram shards.(i mod nshards) "h") x)
        xs;
      Array.iter (Obs.merge_registry target) shards;
      match List.assoc_opt "h" (Obs.histograms target) with
      | None -> QCheck.Test.fail_report "merged histogram missing"
      | Some m ->
          let w = Obs.summary hw in
          m.Obs.count = w.Obs.count
          && m.Obs.min = w.Obs.min
          && m.Obs.max = w.Obs.max
          && m.Obs.p50 = w.Obs.p50
          && m.Obs.p90 = w.Obs.p90
          && m.Obs.p95 = w.Obs.p95
          && m.Obs.p99 = w.Obs.p99)

let test_quantile_exact_small () =
  let reg = Obs.registry () in
  let h = Obs.reg_histogram reg "small" in
  Obs.observe h 5.0;
  let s = Obs.summary h in
  List.iter
    (fun (label, v) -> Alcotest.(check (float 1e-9)) label 5.0 v)
    [ ("p50", s.Obs.p50); ("p90", s.Obs.p90); ("p95", s.Obs.p95);
      ("p99", s.Obs.p99); ("min", s.Obs.min); ("max", s.Obs.max) ]

(* ------------------------------------------------------------------ *)
(* Traced pool: per-domain lanes, deterministic merge                    *)
(* ------------------------------------------------------------------ *)

let traced_run ~domains =
  let obs = Obs.make ~gc:false () in
  Obs.span obs "root" (fun () ->
      let tasks =
        Array.init 8 (fun i child ->
            Mj_obs.Obs.span child "task"
              ~attrs:[ ("i", Json.int i) ]
              (fun () ->
                Mj_obs.Obs.add child "work" (i + 1);
                i * i))
      in
      ignore (Mj_pool.Pool.run_traced ~obs ~domains tasks));
  obs

let rec skeleton (s : Obs.span_tree) =
  s.Obs.name ^ "(" ^ String.concat "," (List.map skeleton s.Obs.children) ^ ")"

(* [pool.domains_clamped] is a per-machine diagnostic, not a semantic
   counter: it fires exactly when the requested domain count exceeds
   the machine's cores, so a 4-domain trace on a small host carries it
   while the 1-domain trace never does.  Determinism is asserted on
   everything else. *)
let semantic_counters obs =
  List.filter (fun (name, _) -> name <> "pool.domains_clamped")
    (Obs.counters obs)

let test_traced_pool_deterministic () =
  let a = traced_run ~domains:1 and b = traced_run ~domains:4 in
  Alcotest.(check bool)
    "same span skeleton at 1 and 4 domains" true
    (List.map skeleton (Obs.trace a) = List.map skeleton (Obs.trace b));
  Alcotest.(check (list (pair string int)))
    "merged counters identical" (semantic_counters a) (semantic_counters b);
  Alcotest.(check (option int))
    "counter folded across children" (Some 36)
    (List.assoc_opt "work" (Obs.counters b))

let test_traced_pool_lanes () =
  let obs = traced_run ~domains:4 in
  let lanes = ref [] in
  let rec collect (s : Obs.span_tree) =
    (match List.assoc_opt "domain" s.Obs.attrs with
    | Some (Json.Num l) ->
        let l = int_of_float l in
        if not (List.mem l !lanes) then lanes := l :: !lanes
    | _ -> ());
    List.iter collect s.Obs.children
  in
  List.iter collect (Obs.trace obs);
  Alcotest.(check bool)
    "task spans carry domain lanes" true
    (List.length !lanes >= 1 && List.for_all (fun l -> l >= 0 && l < 4) !lanes);
  (* The Chrome exporter maps those lanes to distinct tids. *)
  let tids =
    List.filter_map
      (fun line ->
        let t = Json.of_string line in
        match (Json.member "ph" t, Json.member "tid" t) with
        | Some (Json.Str "X"), Some (Json.Num tid) -> Some (int_of_float tid)
        | _ -> None)
      (Export.jsonl_lines obs)
    |> List.sort_uniq compare
  in
  Alcotest.(check bool)
    "spans span multiple chrome tids" true
    (List.length tids >= 2)

(* Regression: a task that raises mid-run must not cost the other tasks
   their spans and lane attributes — [run_traced] merges every child
   sink before re-raising.  The raiser is the LAST task so the serial
   one-domain path completes the same prefix as the parallel one,
   making the merged trace identical at any domain count. *)
exception Boom

let traced_run_raising ~domains =
  let obs = Obs.make ~gc:false () in
  (try
     Obs.span obs "root" (fun () ->
         let tasks =
           Array.init 8 (fun i child ->
               Mj_obs.Obs.span child "task"
                 ~attrs:[ ("i", Json.int i) ]
                 (fun () ->
                   Mj_obs.Obs.add child "work" (i + 1);
                   if i = 7 then raise Boom;
                   i * i))
         in
         ignore (Mj_pool.Pool.run_traced ~obs ~domains tasks))
   with Boom -> ());
  obs

let test_traced_pool_raise_keeps_lanes () =
  let a = traced_run_raising ~domains:1 and b = traced_run_raising ~domains:4 in
  Alcotest.(check bool)
    "same span skeleton at 1 and 4 domains" true
    (List.map skeleton (Obs.trace a) = List.map skeleton (Obs.trace b));
  Alcotest.(check (list (pair string int)))
    "merged counters identical across domain counts" (semantic_counters a)
    (semantic_counters b);
  Alcotest.(check (option int))
    "completed tasks' counters survive the raise" (Some 36)
    (List.assoc_opt "work" (Obs.counters b));
  match Obs.trace b with
  | [ root ] ->
      Alcotest.(check int)
        "all eight task spans merged (raiser's closed by span safety)" 8
        (List.length
           (List.filter (fun (s : Obs.span_tree) -> s.Obs.name = "task")
              root.Obs.children))
  | _ -> Alcotest.fail "expected one root span"

(* ------------------------------------------------------------------ *)
(* GC accounting                                                         *)
(* ------------------------------------------------------------------ *)

let test_gc_attrs () =
  let obs = Obs.make () in
  Obs.span obs "alloc" (fun () ->
      ignore (Sys.opaque_identity (Array.init 4096 (fun i -> string_of_int i))));
  (match Obs.trace obs with
  | [ s ] ->
      let minor =
        match List.assoc_opt "gc.minor_words" s.Obs.attrs with
        | Some (Json.Num w) -> w
        | _ -> Alcotest.fail "gc.minor_words attr missing"
      in
      Alcotest.(check bool) "allocation attributed to span" true (minor > 0.0)
  | _ -> Alcotest.fail "expected one root span");
  Alcotest.(check bool)
    "root gc deltas folded into counters" true
    (match List.assoc_opt "gc.minor_words" (Obs.counters obs) with
    | Some w -> w > 0
    | None -> false)

let test_gc_opt_out () =
  let obs = Obs.make ~gc:false () in
  Obs.span obs "quiet" (fun () -> ignore (Sys.opaque_identity (List.init 64 Fun.id)));
  match Obs.trace obs with
  | [ s ] ->
      Alcotest.(check bool)
        "no gc attrs when disabled" true
        (List.for_all
           (fun (k, _) -> not (String.length k >= 3 && String.sub k 0 3 = "gc."))
           s.Obs.attrs)
  | _ -> Alcotest.fail "expected one root span"

(* ------------------------------------------------------------------ *)
(* Prometheus exposition                                                 *)
(* ------------------------------------------------------------------ *)

let test_prometheus () =
  let obs = Obs.make ~gc:false () in
  Obs.add obs "exec.tuples_scanned" 7;
  Obs.observe (Obs.histogram obs "join.probes") 10.0;
  Obs.observe (Obs.histogram obs "join.probes") 20.0;
  let lines = Export.prometheus_lines obs in
  let has l = List.mem l lines in
  Alcotest.(check bool)
    "counter type line" true
    (has "# TYPE mjoin_exec_tuples_scanned counter");
  Alcotest.(check bool)
    "counter value line" true (has "mjoin_exec_tuples_scanned 7");
  Alcotest.(check bool)
    "summary type line" true (has "# TYPE mjoin_join_probes summary");
  Alcotest.(check bool)
    "count line" true (has "mjoin_join_probes_count 2");
  Alcotest.(check bool)
    "sum line" true (has "mjoin_join_probes_sum 30");
  Alcotest.(check bool)
    "quantile label present" true
    (List.exists
       (fun l ->
         String.length l > 26
         && String.sub l 0 26 = "mjoin_join_probes{quantile")
       lines)

(* ------------------------------------------------------------------ *)
(* Telemetry persistence                                                 *)
(* ------------------------------------------------------------------ *)

let test_telemetry_roundtrip () =
  let path = Filename.temp_file "mj_telemetry" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Telemetry.append path
        (Telemetry.record ~ts:1.5 [ ("cmd", Json.str "explain") ]);
      Telemetry.append path
        (Telemetry.record ~ts:2.5 [ ("cmd", Json.str "verify") ]);
      match Telemetry.read_lines path with
      | [ a; b ] ->
          Alcotest.(check (option string))
            "first cmd" (Some "explain")
            (match Json.member "cmd" a with
            | Some (Json.Str s) -> Some s
            | _ -> None);
          Alcotest.(check bool)
            "schema version stamped" true
            (Json.member "v" a = Some (Json.int Telemetry.schema_version));
          Alcotest.(check (option (float 1e-9)))
            "timestamp preserved" (Some 2.5)
            (match Json.member "ts" b with
            | Some (Json.Num t) -> Some t
            | _ -> None)
      | l -> Alcotest.failf "expected 2 records, got %d" (List.length l))

let test_telemetry_rejects_garbage () =
  let path = Filename.temp_file "mj_telemetry" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      output_string oc "{\"ok\":1}\nnot json\n";
      close_out oc;
      match Telemetry.read_lines path with
      | exception Failure _ -> ()
      | _ -> Alcotest.fail "malformed line should raise")

let test_telemetry_gc_fields () =
  let obs = Obs.make () in
  Obs.span obs "work" (fun () ->
      ignore (Sys.opaque_identity (Array.make 2048 "x")));
  let fields = Telemetry.gc_fields obs in
  Alcotest.(check bool)
    "gc.minor_words surfaced" true
    (List.mem_assoc "gc.minor_words" fields)

(* ------------------------------------------------------------------ *)
(* Bench diff                                                            *)
(* ------------------------------------------------------------------ *)

module Bench_diff = Mj_benchkit.Bench_diff
module Bench_core = Mj_benchkit.Bench_core

let bench_doc rows =
  Json.Obj
    [
      ("key", Json.Arr [ Json.str "shape"; Json.str "n" ]);
      ("rows", Json.Arr rows);
    ]

let bench_row ?(extra = []) ~shape ~n ~seed_ms ~frame_ms () =
  Json.Obj
    ([
       ("shape", Json.str shape);
       ("n", Json.int n);
       ("seed_ms", Json.float seed_ms);
       ("frame_ms", Json.float frame_ms);
     ]
    @ extra)

let test_bench_diff_gate () =
  let old_doc =
    bench_doc
      [
        bench_row ~shape:"chain" ~n:4 ~seed_ms:10.0 ~frame_ms:2.0 ();
        bench_row ~shape:"star" ~n:5 ~seed_ms:20.0 ~frame_ms:4.0 ();
      ]
  in
  let new_doc =
    bench_doc
      [
        bench_row ~shape:"chain" ~n:4 ~seed_ms:10.5 ~frame_ms:2.1 ();
        (* frame_ms regresses 50% *)
        bench_row ~shape:"star" ~n:5 ~seed_ms:20.0 ~frame_ms:6.0 ();
      ]
  in
  let r = Bench_diff.diff ~threshold:25.0 old_doc new_doc in
  Alcotest.(check int) "four comparisons" 4 (List.length r.Bench_diff.compared);
  (match r.Bench_diff.regressions with
  | [ c ] ->
      Alcotest.(check string) "regressed field" "frame_ms" c.Bench_diff.field;
      Alcotest.(check (float 1e-6)) "delta" 50.0 c.Bench_diff.delta_pct
  | l -> Alcotest.failf "expected 1 regression, got %d" (List.length l));
  let ok = Bench_diff.diff ~threshold:60.0 old_doc new_doc in
  Alcotest.(check int) "higher threshold passes" 0
    (List.length ok.Bench_diff.regressions)

let test_bench_diff_row_matching () =
  let old_doc =
    bench_doc [ bench_row ~shape:"chain" ~n:4 ~seed_ms:1.0 ~frame_ms:1.0 () ]
  in
  let new_doc =
    bench_doc [ bench_row ~shape:"cycle" ~n:4 ~seed_ms:99.0 ~frame_ms:99.0 () ]
  in
  let r = Bench_diff.diff ~threshold:10.0 old_doc new_doc in
  Alcotest.(check int) "no shared rows" 0 (List.length r.Bench_diff.compared);
  Alcotest.(check int) "missing rows never fail the gate" 0
    (List.length r.Bench_diff.regressions);
  Alcotest.(check int) "only_old listed" 1 (List.length r.Bench_diff.only_old);
  Alcotest.(check int) "only_new listed" 1 (List.length r.Bench_diff.only_new);
  (* A field outside the key and not a timing (qps, a tally) varies run
     to run: it must not split the match. *)
  let with_qps q =
    bench_doc
      [
        bench_row ~shape:"chain" ~n:4 ~seed_ms:1.0 ~frame_ms:1.0
          ~extra:
            [ ("qps", Json.float q); ("cache_hits", Json.int (int_of_float q)) ]
          ();
      ]
  in
  let r = Bench_diff.diff ~threshold:10.0 (with_qps 100.0) (with_qps 250.0) in
  Alcotest.(check int) "qps does not split the row" 2
    (List.length r.Bench_diff.compared);
  Alcotest.(check int) "nothing unmatched" 0
    (List.length r.Bench_diff.only_old + List.length r.Bench_diff.only_new);
  (* A clamped row matches (not reported missing) but is never compared. *)
  let clamped ms =
    bench_doc
      [
        bench_row ~shape:"chain" ~n:4 ~seed_ms:ms ~frame_ms:ms
          ~extra:[ ("clamped", Json.bool true) ]
          ();
      ]
  in
  let r = Bench_diff.diff ~threshold:10.0 (clamped 1.0) (clamped 50.0) in
  Alcotest.(check int) "clamped row skipped" 0
    (List.length r.Bench_diff.compared);
  Alcotest.(check int) "clamped row still matched" 0
    (List.length r.Bench_diff.only_old);
  Alcotest.check_raises "a document without a key is rejected"
    (Failure "bench-diff: no \"key\" array in bench file") (fun () ->
      ignore
        (Bench_diff.diff ~threshold:10.0
           (Json.Obj [ ("rows", Json.Arr []) ])
           old_doc))

let test_bench_diff_inject () =
  let doc =
    bench_doc
      [
        bench_row ~shape:"chain" ~n:4 ~seed_ms:10.0 ~frame_ms:2.0
          ~extra:[ ("speedup", Json.float 5.0) ]
          ();
      ]
  in
  let r = Bench_diff.diff ~threshold:25.0 doc (Bench_diff.inflate ~pct:50.0 doc) in
  Alcotest.(check int) "both timing fields regress" 2
    (List.length r.Bench_diff.regressions);
  let calm = Bench_diff.diff ~threshold:25.0 doc (Bench_diff.inflate ~pct:10.0 doc) in
  Alcotest.(check int) "sub-threshold inflation passes" 0
    (List.length calm.Bench_diff.regressions)

let test_bench_core_failure_rule () =
  let leg rows = { Bench_core.name = "T"; meta = []; rows } in
  let row ?floor ?(checks = []) ~equal ~base ~ms () =
    Bench_core.(
      row ?floor ~checks
        [
          ("shape", Key (Json.str "chain"));
          ("base_ms", Ms base);
          ("new_ms", Ms ms);
          speedup base ms;
          ("equal", Check equal);
        ])
  in
  Alcotest.(check int) "a passing leg has no failures" 0
    (List.length
       (Bench_core.failures
          (leg [ row ~floor:2.0 ~equal:true ~base:10.0 ~ms:4.0 () ])));
  Alcotest.(check int) "a failed written check trips" 1
    (List.length
       (Bench_core.failures (leg [ row ~equal:false ~base:1.0 ~ms:1.0 () ])));
  Alcotest.(check int) "a failed unwritten check trips" 1
    (List.length
       (Bench_core.failures
          (leg
             [
               row ~checks:[ ("tau = output", false) ] ~equal:true ~base:1.0
                 ~ms:1.0 ();
             ])));
  Alcotest.(check int) "a missed floor trips" 1
    (List.length
       (Bench_core.failures
          (leg [ row ~floor:2.0 ~equal:true ~base:3.0 ~ms:2.0 () ])));
  (* The document: key names the identity fields, the floor's fields
     follow speedup, and the deterministic projection drops timings. *)
  let l = leg [ row ~floor:1.0 ~equal:true ~base:3.0 ~ms:2.0 () ] in
  Alcotest.(check string) "document"
    (Printf.sprintf
       {|{"experiment":"T","cores":%d,"key":["shape"],"rows":[{"shape":"chain","base_ms":3,"new_ms":2,"speedup":1.5,"speedup_floor":1,"speedup_ok":true,"equal":true,"clamped":false}]}|}
       (Domain.recommended_domain_count ()))
    (Json.to_string (Bench_core.to_json l));
  Alcotest.(check string) "deterministic projection"
    {|{"experiment":"T","key":["shape"],"rows":[{"shape":"chain","equal":true}]}|}
    (Json.to_string (Bench_core.deterministic_json l))

let test_bench_core_race () =
  let (f_ms, f_r), (g_ms, g_r) =
    Bench_core.race ~reps:3 (fun () -> "first") (fun () -> 42)
  in
  Alcotest.(check string) "first contender's result" "first" f_r;
  Alcotest.(check int) "second contender's result" 42 g_r;
  Alcotest.(check bool) "timings are finite and non-negative" true
    (Float.is_finite f_ms && Float.is_finite g_ms && f_ms >= 0.0
   && g_ms >= 0.0)

let () =
  Alcotest.run "obs"
    [
      ( "json",
        [
          Alcotest.test_case "round-trip" `Quick test_json_roundtrip;
          Alcotest.test_case "accepts standard JSON" `Quick
            test_json_parser_accepts_standard;
          Alcotest.test_case "rejects garbage" `Quick
            test_json_parser_rejects_garbage;
        ] );
      ( "spans",
        [
          Alcotest.test_case "nesting under a deterministic clock" `Quick
            test_span_nesting;
          Alcotest.test_case "closed on exception" `Quick
            test_span_exception_safe;
          Alcotest.test_case "events and late attributes" `Quick
            test_event_and_set_attr;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "counter semantics" `Quick test_counter_semantics;
          Alcotest.test_case "noop sink records nothing" `Quick test_noop_sink;
          Alcotest.test_case "merge_registry" `Quick test_merge_registry;
        ] );
      ( "engine",
        [
          Alcotest.test_case "sink counters = Frame_engine.stats" `Quick
            test_counters_match_stats;
          Alcotest.test_case "trace shape of execute" `Quick
            test_execute_trace_shape;
        ] );
      ( "export",
        [
          Alcotest.test_case "JSONL golden lines" `Quick test_jsonl_golden;
          Alcotest.test_case "every JSONL line parses" `Quick
            test_jsonl_lines_parse;
          Alcotest.test_case "write_jsonl round-trips" `Quick
            test_write_jsonl_file;
          Alcotest.test_case "human renderer" `Quick test_render_smoke;
        ] );
      ( "optimizer",
        [
          Alcotest.test_case "dpccp counter = csg-cmp count" `Quick
            test_dpccp_pair_counter;
          Alcotest.test_case "dpsize counter = pairs_considered" `Quick
            test_dpsize_pair_counter;
        ] );
      ( "quantiles",
        [
          Alcotest.test_case "single observation is exact" `Quick
            test_quantile_exact_small;
          QCheck_alcotest.to_alcotest qcheck_quantile_oracle;
          QCheck_alcotest.to_alcotest qcheck_merge_of_shards;
        ] );
      ( "traced-pool",
        [
          Alcotest.test_case "deterministic across domain counts" `Quick
            test_traced_pool_deterministic;
          Alcotest.test_case "worker lanes in chrome export" `Quick
            test_traced_pool_lanes;
          Alcotest.test_case "raise mid-run keeps completed lanes" `Quick
            test_traced_pool_raise_keeps_lanes;
        ] );
      ( "gc",
        [
          Alcotest.test_case "span gc attrs and counters" `Quick test_gc_attrs;
          Alcotest.test_case "opt-out leaves spans clean" `Quick
            test_gc_opt_out;
        ] );
      ( "prometheus",
        [ Alcotest.test_case "text exposition" `Quick test_prometheus ] );
      ( "telemetry",
        [
          Alcotest.test_case "append/read round-trip" `Quick
            test_telemetry_roundtrip;
          Alcotest.test_case "malformed line raises" `Quick
            test_telemetry_rejects_garbage;
          Alcotest.test_case "gc fields from a sink" `Quick
            test_telemetry_gc_fields;
        ] );
      ( "bench-diff",
        [
          Alcotest.test_case "threshold gate" `Quick test_bench_diff_gate;
          Alcotest.test_case "row matching" `Quick test_bench_diff_row_matching;
          Alcotest.test_case "inject self-check" `Quick test_bench_diff_inject;
          Alcotest.test_case "core failure rule" `Quick
            test_bench_core_failure_rule;
          Alcotest.test_case "race returns both results" `Quick
            test_bench_core_race;
        ] );
    ]

open Mjbench_core
module Obs = Mj_obs.Obs
module Json = Mj_obs.Json

let hot = (Workloads.serve_hot ~smoke:false).stream
let churn = (Workloads.serve_churn ~smoke:false).stream

let schedule_deterministic () =
  let lines spec seed =
    List.init 500 (fun i -> Schedule.line spec ~id:i (Schedule.request spec ~seed i))
  in
  Alcotest.(check (list string)) "same seed, same lines" (lines hot 7) (lines hot 7);
  Alcotest.(check bool) "another seed, other lines" false (lines hot 7 = lines hot 8);
  Alcotest.(check bool) "churn: every 400th request invalidates" true
    (List.for_all
       (fun i -> Schedule.request churn ~seed:3 i = Schedule.Invalidate)
       [ 399; 799; 1199 ]
    && Schedule.request churn ~seed:3 400 <> Schedule.Invalidate)

(* Nearest rank by definition: the smallest sample with at least p of
   the samples at or below it. *)
let reference xs p =
  let sorted = List.sort Float.compare xs in
  let n = List.length xs in
  let need = Float.ceil (p *. float_of_int n) in
  List.find
    (fun v ->
      float_of_int (List.length (List.filter (fun x -> x <= v) sorted)) >= need)
    sorted

let percentiles () =
  let rng = Random.State.make [| 42 |] in
  for trial = 1 to 200 do
    let n = 1 + Random.State.int rng 300 in
    let xs = List.init n (fun _ -> float_of_int (Random.State.int rng 50)) in
    let a = Stats.sorted xs in
    List.iter
      (fun p ->
        Alcotest.(check (float 0.))
          (Printf.sprintf "trial %d n=%d p=%g" trial n p)
          (reference xs p) (Stats.percentile a p))
      [ 0.01; 0.5; 0.9; 0.99; 1. ]
  done;
  let beyond n p =
    let xs = List.init n float_of_int in
    let v = reference xs p in
    List.length (List.filter (fun x -> x > v) xs)
  in
  List.iter
    (fun n ->
      Alcotest.(check bool)
        (Printf.sprintf "p90 supported at n=%d" n)
        (beyond n 0.9 >= 10) (Stats.supported n 0.9))
    [ 1; 50; 99; 100; 101; 109; 110; 1000 ];
  Alcotest.(check bool) "p90 needs 100 samples" true
    ((not (Stats.supported 99 0.9)) && Stats.supported 100 0.9);
  (* statistics.quantiles(range(1, 11), n=4) *)
  let q1, m, q3 = Stats.quartiles (List.init 10 (fun i -> float_of_int (i + 1))) in
  Alcotest.(check (list (float 1e-9))) "quartiles as Python's" [ 2.75; 5.5; 8.25 ]
    [ q1; m; q3 ]

let verdict =
  Alcotest.testable
    (fun fmt v -> Format.pp_print_string fmt (Compare.verdict_name v))
    ( = )

let classify ?(higher_better = false) base cand =
  (Compare.cell ~workload:"w" ~metric:"m" ~higher_better ~bound:0.1 ~base ~cand)
    .Compare.verdict

let compare_verdicts () =
  let steady = [ 10.; 10.1; 9.9; 10.05; 9.95; 10.; 10.1; 9.9; 10.02; 9.98 ] in
  let scale k = List.map (fun x -> x *. k) steady in
  Alcotest.check verdict "within the bound" Compare.Same (classify steady (scale 1.05));
  Alcotest.check verdict "slower by more than the bound" Compare.Worse
    (classify steady (scale 1.2));
  Alcotest.check verdict "higher is better: lower throughput is worse" Compare.Worse
    (classify ~higher_better:true steady (scale 0.8));
  Alcotest.check verdict "faster in 10 of 10 pairs, beyond the spread" Compare.Better
    (classify steady (scale 0.95));
  Alcotest.check verdict "faster but in only 5 pairs: no claim" Compare.Same
    (classify (List.filteri (fun i _ -> i < 5) steady)
       (List.filteri (fun i _ -> i < 5) (scale 0.95)));
  let noisy = [ 8.; 12.; 9.; 11.; 10.; 7.; 13.; 10.; 9.; 11. ] in
  Alcotest.check verdict "base spread wider than the bound" Compare.Unresolved
    (classify noisy (List.map (fun x -> x *. 1.02) noisy));
  Alcotest.check verdict "every candidate run beats every base run" Compare.Better
    (classify noisy (List.map (fun _ -> 5.) noisy));
  let run failed =
    {
      Record.workload = "tau-sweep"; seed = 1; seconds = 1.; smoke = false;
      correct = failed = 0; attempted = 100; failed; invalid = []; provenance = [];
      metrics = []; layers = [];
    }
  in
  let spec =
    { Spec.run_seconds = 1; workloads = [ "tau-sweep" ]; end_to_end = []; per_layer = [] }
  in
  let fail_verdict base cand =
    match Compare.cells spec base cand with
    | [ c ] -> c.Compare.verdict
    | _ -> Alcotest.fail "one fail_ratio cell expected"
  in
  Alcotest.check verdict "a new failure is worse" Compare.Worse
    (fail_verdict [ run 0; run 0 ] [ run 0; run 1 ]);
  Alcotest.check verdict "no failures either side" Compare.Same
    (fail_verdict [ run 0 ] [ run 0 ])

let span ?(children = []) name start stop =
  { Obs.name; start; duration = stop -. start; attrs = []; children }

let self_time () =
  (* Children [1,4] and [3,6] overlap; [8,12] sticks out of the root. *)
  let leaf = span "scan" 1. 2. in
  let root =
    span "bench.op" 0. 10.
      ~children:
        [ span "a" 1. 4. ~children:[ leaf ]; span "b" 3. 6.; span "c" 8. 12. ]
  in
  let eq = Alcotest.(check (float 1e-9)) in
  eq "root self = 10 - |[1,6] u [8,10]|" 3. (Layers.self_time root);
  eq "coverage" 0.7 (Layers.coverage root);
  eq "child self" 2. (Layers.self_time (List.hd root.children));
  eq "leaf self" 1. (Layers.self_time leaf);
  let table = Layers.table [ root; root ] in
  Alcotest.(check (list string)) "pre-order names" [ "bench.op"; "a"; "scan"; "b"; "c" ]
    (List.map (fun (r : Layers.row) -> r.name) table);
  eq "busy sums over roots" 6. (Layers.busy table "a");
  eq "self sums over roots" 4.
    (List.find (fun (r : Layers.row) -> r.name = "a") table).self

(* The benchmark end to end: every workload at smoke size, traced, in
   fresh processes, as [dune runtest] builds it. *)
let smoke () =
  let out = "smoke-runs.json" in
  if Sys.file_exists out then Sys.remove out;
  let cmd =
    Filename.quote_command "./mjbench.exe"
      [ "run"; "--smoke"; "--spec"; "../../BENCHMARK.json"; "--trace"; "smoke-trace";
        "--out"; out ]
      ~stdout:"smoke-stdout.txt"
  in
  let t0 = Unix.gettimeofday () in
  Alcotest.(check int) "mjbench run --smoke exits 0" 0 (Sys.command cmd);
  let elapsed = Unix.gettimeofday () -. t0 in
  Alcotest.(check bool) (Printf.sprintf "under 20 s (%.1f s)" elapsed) true (elapsed < 20.);
  let spec = Spec.load "../../BENCHMARK.json" in
  let runs = Record.load_set out in
  Alcotest.(check (list string)) "one run per workload" spec.workloads
    (List.map (fun (r : Record.t) -> r.workload) runs);
  List.iter
    (fun (r : Record.t) ->
      Alcotest.(check bool) (r.workload ^ " certified") true (r.correct && r.failed = 0);
      let check_all what have (metrics : Spec.metric list) =
        List.iter
          (fun (m : Spec.metric) ->
            match List.assoc_opt m.name have with
            | Some (v : Record.metric) ->
                Alcotest.(check bool)
                  (Printf.sprintf "%s %s %s finite" r.workload what m.name)
                  true (Float.is_finite v.value && v.unit_ = m.unit_)
            | None -> Alcotest.failf "%s: no %s metric %s" r.workload what m.name)
          metrics
      in
      check_all "end-to-end" r.metrics spec.end_to_end;
      check_all "per-layer" r.layers spec.per_layer;
      Alcotest.(check (float 0.)) (r.workload ^ " fail_ratio") 0.
        (List.assoc "fail_ratio" r.metrics).value;
      Alcotest.(check bool) (r.workload ^ " trace written") true
        (Sys.file_exists (Filename.concat "smoke-trace" (r.workload ^ ".jsonl"))))
    runs

let () =
  Alcotest.run "mjbench"
    [
      ( "mjbench",
        [
          Alcotest.test_case "schedule is deterministic" `Quick schedule_deterministic;
          Alcotest.test_case "percentiles match a sorted-list reference" `Quick percentiles;
          Alcotest.test_case "compare classifies synthetic runs" `Quick compare_verdicts;
          Alcotest.test_case "self time on a synthetic span tree" `Quick self_time;
          Alcotest.test_case "smoke run of every workload" `Slow smoke;
        ] );
    ]

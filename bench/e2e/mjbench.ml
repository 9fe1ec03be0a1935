(* mjbench: the end-to-end benchmark of mjoin.

     mjbench run [--workload W] [--seed S] [--seconds N] [--smoke]
                 [--trace DIR] [--out FILE]
     mjbench compare BASE.json CAND.json...

   [run] prints every metric as "name unit value" and, last, one JSON
   line with the metrics BENCHMARK.json names (end-to-end ones, or the
   per-layer ones with --trace).  It exits non-zero when an answer
   fails certification.  Without --workload it runs every workload,
   each in a fresh process. *)

open Mjbench_core
module Json = Mj_obs.Json

(* The commit of the checkout mjbench runs from, read from .git
   without running git; "unknown" outside a git checkout. *)
let git_commit () =
  let read path =
    try Some (String.trim (In_channel.with_open_bin path In_channel.input_all))
    with Sys_error _ -> None
  in
  match read ".git/HEAD" with
  | None -> "unknown"
  | Some head when String.starts_with ~prefix:"ref: " head -> (
      let ref_ = String.sub head 5 (String.length head - 5) in
      match read (Filename.concat ".git" ref_) with
      | Some commit -> commit
      | None -> (
          let packed = Option.value (read ".git/packed-refs") ~default:"" in
          match
            List.find_opt
              (fun l -> String.ends_with ~suffix:(" " ^ ref_) l)
              (String.split_on_char '\n' packed)
          with
          | Some l -> List.hd (String.split_on_char ' ' l)
          | None -> "unknown"))
  | Some commit -> commit

let record ~workload ~(ctx : Workloads.ctx) (o : Workloads.outcome) =
  let lat = Stats.sorted (Array.to_list o.latency_ms) in
  let n = Array.length lat in
  let failed = List.length o.failures in
  let m value unit_ = { Record.value; unit_ } in
  {
    Record.workload;
    seed = ctx.seed;
    seconds = ctx.seconds;
    smoke = ctx.smoke;
    correct = failed = 0;
    attempted = o.attempted;
    failed;
    invalid =
      o.invalid
      @ (if Stats.supported n 0.9 then []
         else [ Printf.sprintf "%d samples leave fewer than 10 beyond p90" n ])
      @ if ctx.smoke then [ "smoke run" ] else [];
    provenance =
      [
        ("commit", Json.str (git_commit ()));
        ("ocaml", Json.str Sys.ocaml_version);
        ("nproc", Json.int (Domain.recommended_domain_count ()));
        ("threads", Json.int o.threads);
        ("seed", Json.int ctx.seed);
      ];
    metrics =
      [
        ("setup_s", m (Stats.median o.setups) "s");
        ("p50_ms", m (Stats.percentile lat 0.5) "ms");
        ("p90_ms", m (Stats.percentile lat 0.9) "ms");
        ("ops_per_s", m o.ops_per_s "op/s");
        ("peak_rss_mb", m o.peak_rss_mb "MB");
        ("p99_ms", m (Stats.percentile lat 0.99) "ms");
        ("samples", m (float_of_int n) "count");
        ( "fail_ratio",
          m (float_of_int failed /. float_of_int (max 1 o.attempted)) "ratio" );
      ]
      @ List.map (fun (name, v, u) -> (name, m v u)) o.notes;
    layers =
      List.map
        (fun (name, v) -> (name, m v (List.assoc name Workloads.layer_units)))
        o.layers;
  }

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    Sys.mkdir dir 0o755
  end

let run_one spec ~workload ~(ctx : Workloads.ctx) ~out =
  match List.assoc_opt workload Workloads.all with
  | None ->
      Printf.eprintf "mjbench: unknown workload %s\n" workload;
      2
  | Some run -> (
      Option.iter mkdir_p ctx.trace_dir;
      let outcome = run ctx in
      let r = record ~workload ~ctx outcome in
      Printf.printf "# %s, %g s window: %s\n" workload ctx.seconds
        (Json.to_string (Json.Obj r.provenance));
      List.iter
        (fun (name, (v : Record.metric)) ->
          Printf.printf "%s %s %.6g\n" name v.unit_ v.value)
        (r.metrics @ r.layers);
      List.iter (Printf.printf "# invalid: %s\n") r.invalid;
      List.iteri
        (fun i msg -> if i < 10 then Printf.eprintf "mjbench: %s\n" msg)
        outcome.failures;
      Option.iter (fun path -> Record.append path r) out;
      match Record.result_line spec ~traced:(ctx.trace_dir <> None) r with
      | Error missing ->
          Printf.eprintf "mjbench: no value for %s\n" (String.concat ", " missing);
          1
      | Ok line ->
          print_endline line;
          if r.correct then 0 else 1)

let run spec_path workload seed seconds smoke trace_dir out =
  let spec = Spec.load spec_path in
  (* dune builds mjbench to <build>/default/bench/e2e and mjoin to
     <build>/default/bin. *)
  let mjoin =
    Filename.concat (Filename.dirname Sys.executable_name) "../../bin/main.exe"
  in
  match workload with
  | Some workload ->
      let seconds =
        if smoke then 1.
        else Option.value seconds ~default:(float_of_int spec.run_seconds)
      in
      run_one spec ~workload ~ctx:{ Workloads.seed; seconds; smoke; trace_dir; mjoin } ~out
  | None ->
      let opt flag = Option.fold ~none:[] ~some:(fun v -> [ flag; v ]) in
      List.fold_left
        (fun code workload ->
          let args =
            [ Sys.executable_name; "run"; "--workload"; workload; "--spec"; spec_path;
              "--seed"; string_of_int seed ]
            @ opt "--seconds" (Option.map string_of_float seconds)
            @ (if smoke then [ "--smoke" ] else [])
            @ opt "--trace" trace_dir @ opt "--out" out
          in
          flush_all ();
          let pid =
            Unix.create_process Sys.executable_name (Array.of_list args) Unix.stdin
              Unix.stdout Unix.stderr
          in
          match snd (Unix.waitpid [] pid) with
          | Unix.WEXITED 0 -> code
          | _ -> 1)
        0 spec.workloads

let compare spec_path base cands =
  let spec = Spec.load spec_path in
  let base = Record.load_set base
  and cand = List.concat_map Record.load_set cands in
  List.iter
    (fun (r : Record.t) ->
      if r.invalid <> [] then
        Printf.eprintf "mjbench: %s seed %d is not a valid run: %s\n" r.workload r.seed
          (String.concat "; " r.invalid))
    (base @ cand);
  let cells = Compare.cells spec base cand in
  Compare.pp Format.std_formatter cells;
  if
    List.exists
      (fun (c : Compare.cell) -> c.verdict = Compare.Worse || c.verdict = Compare.Unresolved)
      cells
  then 1
  else 0

open Cmdliner

let spec_arg =
  Arg.(
    value & opt file "BENCHMARK.json"
    & info [ "spec" ] ~docv:"FILE" ~doc:"The benchmark definition.")

let run_cmd =
  let workload =
    Arg.(
      value & opt (some string) None
      & info [ "workload" ] ~docv:"W" ~doc:"Run one workload; default: all, one process each.")
  in
  let seed = Arg.(value & opt int 1 & info [ "seed" ] ~docv:"S" ~doc:"Workload seed.") in
  let seconds =
    Arg.(
      value & opt (some float) None
      & info [ "seconds" ] ~docv:"N"
          ~doc:"Length of the timed window; default: run_seconds of the spec.")
  in
  let smoke =
    Arg.(value & flag & info [ "smoke" ] ~doc:"Tiny inputs and a 1 s window: a functional check.")
  in
  let trace =
    Arg.(
      value & opt (some string) None
      & info [ "trace" ] ~docv:"DIR"
          ~doc:"Also run a traced replay, write DIR/<workload>.jsonl and report per-layer metrics.")
  in
  let out =
    Arg.(
      value & opt (some string) None
      & info [ "out" ] ~docv:"FILE" ~doc:"Add the run to the set of runs in FILE.")
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Run the benchmark")
    Term.(const run $ spec_arg $ workload $ seed $ seconds $ smoke $ trace $ out)

let compare_cmd =
  let base = Arg.(required & pos 0 (some file) None & info [] ~docv:"BASE") in
  let cands = Arg.(non_empty & pos_right 0 file [] & info [] ~docv:"CAND") in
  Cmd.v
    (Cmd.info "compare" ~doc:"Compare candidate runs against base runs")
    Term.(const compare $ spec_arg $ base $ cands)

let () =
  exit (Cmd.eval' (Cmd.group (Cmd.info "mjbench" ~doc:"End-to-end benchmark of mjoin") [ run_cmd; compare_cmd ]))

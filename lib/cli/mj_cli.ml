open Cmdliner
module Engine = Mj_engine.Engine
module Planner = Mj_engine.Planner

let plane_conv =
  let parse s =
    match Engine.plane_of_string s with
    | Some p -> Ok p
    | None ->
        Error
          (`Msg (Printf.sprintf "unknown engine %s (expected seed or frame)" s))
  in
  Arg.conv (parse, fun fmt p -> Format.pp_print_string fmt (Engine.plane_name p))

let policy_conv =
  let parse s =
    match Planner.policy_of_string s with
    | Some p -> Ok p
    | None ->
        Error
          (`Msg
            (Printf.sprintf
               "unknown policy %s (expected hash, wcoj or yann)" s))
  in
  Arg.conv
    (parse, fun fmt p -> Format.pp_print_string fmt (Planner.policy_name p))

let engine_arg =
  Arg.(
    value
    & opt (some plane_conv) None
    & info [ "engine" ] ~docv:"PLANE"
        ~doc:
          "Data plane: 'seed' (materializing tuple engine) or 'frame' \
           (columnar dictionary-encoded engine).  Default: \
           $(b,MJ_DATA_PLANE), else seed.")

let domains_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "domains" ] ~docv:"N"
        ~doc:
          "Worker domains for parallel sections.  Default: $(b,MJ_DOMAINS), \
           else the core count capped at 8.")

let policy_arg =
  Arg.(
    value
    & opt (some policy_conv) None
    & info [ "policy" ]
        ~doc:
          "Plan-lowering policy: 'hash' (every join step a hash join), \
           'wcoj' (worst-case-optimal generic join on cyclic queries, \
           hash joins on acyclic ones) or 'yann' (Yannakakis semijoin \
           program over a cost-chosen join tree on acyclic queries, wcoj \
           fallthrough on cyclic ones).  'cost' is accepted as an alias \
           of 'hash'.  Default: $(b,MJ_ALGO_POLICY), else hash.")

let telemetry_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "telemetry" ] ~docv:"FILE"
        ~doc:
          "Append a per-query telemetry record (shape, plane, policy, \
           domains, per-step est/actual cardinality, Q-error, timings, GC \
           deltas) to $(docv) as JSONL.  Default: $(b,MJ_TELEMETRY), else \
           off.")

let morsel_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "morsel" ] ~docv:"ROWS"
        ~doc:
          "Probe-morsel size (rows) for the frame plane's hash join, which \
           runs in parallel only when its probe side spans two morsels.  \
           Default: $(b,MJ_MORSEL), else 16384.")

type flags = {
  plane : Engine.plane option;
  domains : int option;
  policy : Planner.policy option;
  telemetry : string option;
  morsel : int option;
}

let engine_term =
  Term.(
    const (fun plane domains ->
        { plane; domains; policy = None; telemetry = None; morsel = None })
    $ engine_arg $ domains_arg)

let config_term =
  Term.(
    const (fun f policy telemetry morsel ->
        { f with policy; telemetry; morsel })
    $ engine_term $ policy_arg $ telemetry_arg $ morsel_arg)

let make_config ?obs f =
  Engine.Config.make ?plane:f.plane ?domains:f.domains ?policy:f.policy ?obs
    ?telemetry:f.telemetry ?morsel:f.morsel ()


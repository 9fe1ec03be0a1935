open Cmdliner
module Engine = Mj_engine.Engine
module Planner = Mj_engine.Planner

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
          "Append a per-query telemetry record (shape, policy, domains, \
           per-step est/actual cardinality, Q-error, timings, GC deltas) \
           to $(docv) as JSONL.  Default: $(b,MJ_TELEMETRY), else off.")

type flags = {
  domains : int option;
  policy : Planner.policy option;
  telemetry : string option;
}

let engine_term =
  Term.(
    const (fun domains -> { domains; policy = None; telemetry = None })
    $ domains_arg)

let config_term =
  Term.(
    const (fun f policy telemetry -> { f with policy; telemetry })
    $ engine_term $ policy_arg $ telemetry_arg)

let make_config ?obs f =
  Engine.Config.make ?domains:f.domains ?policy:f.policy ?obs
    ?telemetry:f.telemetry ()

open Mj_relation
module Obs = Mj_obs.Obs
module Pool = Mj_pool.Pool

type plane = Seed | Frame

let plane_name = function Seed -> "seed" | Frame -> "frame"

let plane_of_string s =
  match String.lowercase_ascii (String.trim s) with
  | "seed" -> Some Seed
  | "frame" -> Some Frame
  | _ -> None

module Config = struct
  type t = {
    plane : plane; (* read by nothing; see engine.mli *)
    domains : int;
    obs : Obs.sink;
    algo_policy : Planner.policy;
    index_cache : Exec.index_cache; (* read by nothing; see engine.mli *)
    telemetry : string option;
    frame_storage : Frame.storage; (* read by nothing; see engine.mli *)
    morsel : int option;
  }

  (* An empty or blank value means unset; any other value that does not
     parse fails loudly, naming the variable, like MJ_FAILPOINTS. *)
  let env_var name ~expect parse =
    match Sys.getenv_opt name with
    | None -> None
    | Some s when String.trim s = "" -> None
    | Some s -> (
        match parse (String.trim s) with
        | Some v -> Some v
        | None -> failwith (Printf.sprintf "%s: %S is not %s" name s expect))

  (* The single point of environment reads in the whole library tree:
     MJ_DOMAINS, MJ_ALGO_POLICY and MJ_TELEMETRY are read once per
     process, here, and the resolved MJ_DOMAINS is pushed down to the
     pool's default worker count, so every default-using caller keeps
     its env-driven behavior without a second read. *)
  let env =
    lazy
      (let domains =
         env_var "MJ_DOMAINS" ~expect:"an integer" (fun s ->
             Option.map (max 1) (int_of_string_opt s))
       in
       let policy =
         Option.value ~default:Planner.Hash_all
           (env_var "MJ_ALGO_POLICY" ~expect:"hash, wcoj or yann"
              Planner.policy_of_string)
       in
       let telemetry = env_var "MJ_TELEMETRY" ~expect:"a path" Option.some in
       (match Sys.getenv_opt "MJ_FAILPOINTS" with
       | Some s -> (
           match Mj_failpoint.Failpoint.set_spec s with
           | Ok () -> ()
           | Error msg -> failwith ("MJ_FAILPOINTS: " ^ msg))
       | None -> ());
       (match domains with Some d -> Pool.set_env_domains d | None -> ());
       (domains, policy, telemetry))

  let of_env ?(obs = Obs.noop) () =
    let domains, policy, telemetry = Lazy.force env in
    {
      plane = Frame;
      domains =
        (match domains with Some d -> d | None -> Pool.default_domains ());
      obs;
      algo_policy = policy;
      index_cache = Exec.index_cache ();
      telemetry;
      frame_storage = Frame.Heap;
      morsel = None;
    }

  let make ?plane ?domains ?policy ?obs ?telemetry ?morsel () =
    let base = of_env ?obs () in
    {
      base with
      plane = Option.value plane ~default:base.plane;
      domains = (match domains with Some d -> max 1 d | None -> base.domains);
      algo_policy = Option.value policy ~default:base.algo_policy;
      telemetry =
        (match telemetry with Some _ -> telemetry | None -> base.telemetry);
      morsel = Option.map (max 1) morsel;
    }
end

type stats = {
  tuples_generated : int;
  result_rows : int;
  per_step : (Scheme.Set.t * int) list;
  frame : Frame_engine.stats option;
}

let of_frame (s : Frame_engine.stats) =
  {
    tuples_generated = s.tuples_generated;
    result_rows = s.result_rows;
    per_step = s.per_step;
    frame = Some s;
  }

(* Adds the seed states [f] decoded from the database's coded form to
   the ["db.seed_forced"] counter: 0 for a query on a generated
   database, which reads only the coded form. *)
let counting_forced (cfg : Config.t) db f =
  let before = Database.seed_forced db in
  let x = f () in
  if Obs.enabled cfg.obs then
    Obs.add cfg.obs "db.seed_forced" (Database.seed_forced db - before);
  x

let lower (cfg : Config.t) db strategy =
  counting_forced cfg db @@ fun () ->
  Planner.lower ~policy:cfg.algo_policy db strategy

(* [?fdb] is read by nothing: the executor reads the database's own
   coded form, which is what [Frame.Db.of_database] returns. *)
let execute_plan ?fdb:_ (cfg : Config.t) db plan =
  counting_forced cfg db @@ fun () ->
  let r, s =
    Frame_engine.execute_plan ~obs:cfg.obs ~domains:cfg.domains
      ?morsel:cfg.morsel db plan
  in
  (r, of_frame s)

let execute_digest (cfg : Config.t) db plan =
  counting_forced cfg db @@ fun () ->
  let d, s =
    Frame_engine.execute_digest ~obs:cfg.obs ~domains:cfg.domains
      ?morsel:cfg.morsel db plan
  in
  (d, of_frame s)

let execute_stats (cfg : Config.t) db plan =
  counting_forced cfg db @@ fun () ->
  of_frame
    (Frame_engine.execute_stats ~obs:cfg.obs ~domains:cfg.domains
       ?morsel:cfg.morsel db plan)

let run cfg db strategy = execute_plan cfg db (lower cfg db strategy)

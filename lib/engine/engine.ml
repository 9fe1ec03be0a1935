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
    plane : plane;
    domains : int;
    obs : Obs.sink;
    algo_policy : Planner.policy;
    index_cache : Exec.index_cache; (* read by nothing; see engine.mli *)
    telemetry : string option;
    frame_storage : Frame.storage; (* read by nothing; see engine.mli *)
    morsel : int option;
  }

  (* The single point of environment reads in the whole library tree:
     MJ_DATA_PLANE, MJ_DOMAINS, MJ_ALGO_POLICY, MJ_TELEMETRY and
     MJ_MORSEL are read once per process, here, and the resolved
     MJ_DOMAINS is pushed down to the pool's default worker count, so
     every default-using caller keeps its env-driven behavior without a
     second read.  An empty or blank value means unset; any other value
     that does not parse fails loudly, naming the variable, like
     MJ_FAILPOINTS. *)
  let env =
    lazy
      (let var name ~expect parse =
         match Sys.getenv_opt name with
         | None -> None
         | Some s when String.trim s = "" -> None
         | Some s -> (
             match parse (String.trim s) with
             | Some v -> Some v
             | None ->
                 failwith (Printf.sprintf "%s: %S is not %s" name s expect))
       in
       let count s = Option.map (max 1) (int_of_string_opt s) in
       let plane =
         Option.value ~default:Seed
           (var "MJ_DATA_PLANE" ~expect:"seed or frame" plane_of_string)
       in
       let domains = var "MJ_DOMAINS" ~expect:"an integer" count in
       let policy =
         Option.value ~default:Planner.Hash_all
           (var "MJ_ALGO_POLICY" ~expect:"hash, wcoj or yann"
              Planner.policy_of_string)
       in
       let telemetry = var "MJ_TELEMETRY" ~expect:"a path" Option.some in
       let morsel = var "MJ_MORSEL" ~expect:"an integer" count in
       (match Sys.getenv_opt "MJ_FAILPOINTS" with
       | Some s -> (
           match Mj_failpoint.Failpoint.set_spec s with
           | Ok () -> ()
           | Error msg -> failwith ("MJ_FAILPOINTS: " ^ msg))
       | None -> ());
       (match domains with Some d -> Pool.set_env_domains d | None -> ());
       (plane, domains, policy, telemetry, morsel))

  let of_env ?(obs = Obs.noop) () =
    let plane, domains, policy, telemetry, morsel = Lazy.force env in
    {
      plane;
      domains =
        (match domains with Some d -> d | None -> Pool.default_domains ());
      obs;
      algo_policy = policy;
      index_cache = Exec.index_cache ();
      telemetry;
      frame_storage = Frame.Heap;
      morsel;
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
      morsel =
        (match morsel with Some m -> Some (max 1 m) | None -> base.morsel);
    }
end

type stats = {
  plane : plane;
  tuples_generated : int;
  result_rows : int;
  per_step : (Scheme.Set.t * int) list;
  seed : Exec.stats option;
  frame : Frame_engine.stats option;
}

let of_seed (s : Exec.stats) =
  {
    plane = Seed;
    tuples_generated = s.tuples_generated;
    result_rows = s.result_rows;
    per_step = s.per_step;
    seed = Some s;
    frame = None;
  }

let of_frame (s : Frame_engine.stats) =
  {
    plane = Frame;
    tuples_generated = s.tuples_generated;
    result_rows = s.result_rows;
    per_step = s.per_step;
    seed = None;
    frame = Some s;
  }

(* Adds the seed states [f] decoded from the database's coded form to
   the ["db.seed_forced"] counter: 0 for a frame-plane query on a
   generated database, which reads only the coded form. *)
let counting_forced (cfg : Config.t) db f =
  let before = Database.seed_forced db in
  let x = f () in
  if Obs.enabled cfg.obs then
    Obs.add cfg.obs "db.seed_forced" (Database.seed_forced db - before);
  x

let lower (cfg : Config.t) db strategy =
  counting_forced cfg db @@ fun () ->
  Planner.lower ~policy:cfg.algo_policy db strategy

(* A warm frame dictionary only means something on the frame plane; the
   seed plane ignores it. *)
let execute_plan ?fdb (cfg : Config.t) db plan =
  counting_forced cfg db @@ fun () ->
  match cfg.plane with
  | Seed ->
      let r, s = Exec.execute ~obs:cfg.obs db plan in
      (r, of_seed s)
  | Frame ->
      let r, s =
        Frame_engine.execute_plan ~obs:cfg.obs ~domains:cfg.domains
          ?morsel:cfg.morsel ?fdb db plan
      in
      (r, of_frame s)

let execute_digest ?fdb (cfg : Config.t) db plan =
  counting_forced cfg db @@ fun () ->
  match cfg.plane with
  | Seed ->
      let d, s = Exec.execute_digest ~obs:cfg.obs db plan in
      (d, of_seed s)
  | Frame ->
      let d, s =
        Frame_engine.execute_digest ~obs:cfg.obs ~domains:cfg.domains
          ?morsel:cfg.morsel ?fdb db plan
      in
      (d, of_frame s)

let execute_stats (cfg : Config.t) db plan =
  counting_forced cfg db @@ fun () ->
  match cfg.plane with
  | Seed -> of_seed (Exec.execute_stats ~obs:cfg.obs db plan)
  | Frame ->
      of_frame
        (Frame_engine.execute_stats ~obs:cfg.obs ~domains:cfg.domains
           ?morsel:cfg.morsel db plan)

let run ?fdb cfg db strategy = execute_plan ?fdb cfg db (lower cfg db strategy)

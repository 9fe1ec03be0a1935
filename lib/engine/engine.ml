open Mj_relation
open Multijoin
module Obs = Mj_obs.Obs
module Pool = Mj_pool.Pool

type plane = Seed | Frame

let plane_name = function Seed -> "seed" | Frame -> "frame"

let plane_of_string s =
  match String.lowercase_ascii (String.trim s) with
  | "seed" -> Some Seed
  | "frame" -> Some Frame
  | _ -> None

let backend_of_plane = function
  | Seed -> Cost.Cache.Seed
  | Frame -> Cost.Cache.Frame

module Config = struct
  type t = {
    plane : plane;
    domains : int;
    obs : Obs.sink;
    algo_policy : Planner.policy;
    index_cache : Exec.index_cache;
    telemetry : string option;
    frame_storage : Frame.storage;
    morsel : int option;
  }

  (* The single point of environment reads in the whole library tree:
     MJ_DATA_PLANE, MJ_DOMAINS, MJ_ALGO_POLICY, MJ_TELEMETRY,
     MJ_FRAME_STORAGE and MJ_MORSEL are read once per process, here,
     and the resolved values are pushed down to the two modules that
     used to read the environment themselves (the pool's default
     worker count and [Cost.Cache]'s default backend), so every legacy
     caller keeps its env-driven behavior without a second read. *)
  let env =
    lazy
      (let plane =
         match Sys.getenv_opt "MJ_DATA_PLANE" with
         | Some s when String.lowercase_ascii (String.trim s) = "frame" ->
             Frame
         | _ -> Seed
       in
       let domains =
         match Sys.getenv_opt "MJ_DOMAINS" with
         | Some s -> (
             try Some (max 1 (int_of_string (String.trim s)))
             with _ -> Some 1)
         | None -> None
       in
       let policy =
         match Sys.getenv_opt "MJ_ALGO_POLICY" with
         | Some s ->
             Option.value (Planner.policy_of_string s)
               ~default:Planner.Hash_all
         | None -> Planner.Hash_all
       in
       let telemetry =
         match Sys.getenv_opt "MJ_TELEMETRY" with
         | Some s when String.trim s <> "" -> Some (String.trim s)
         | _ -> None
       in
       let frame_storage =
         match Sys.getenv_opt "MJ_FRAME_STORAGE" with
         | Some s ->
             Option.value (Frame.storage_of_string s) ~default:Frame.Heap
         | None -> Frame.Heap
       in
       let morsel =
         match Sys.getenv_opt "MJ_MORSEL" with
         | Some s -> (
             try Some (max 1 (int_of_string (String.trim s))) with _ -> None)
         | None -> None
       in
       (match Sys.getenv_opt "MJ_FAILPOINTS" with
       | Some s -> (
           match Mj_failpoint.Failpoint.set_spec s with
           | Ok () -> ()
           | Error msg -> failwith ("MJ_FAILPOINTS: " ^ msg))
       | None -> ());
       Cost.Cache.set_env_backend (backend_of_plane plane);
       (match domains with Some d -> Pool.set_env_domains d | None -> ());
       (plane, domains, policy, telemetry, frame_storage, morsel))

  let of_env ?(obs = Obs.noop) () =
    let plane, domains, policy, telemetry, frame_storage, morsel =
      Lazy.force env
    in
    {
      plane;
      domains =
        (match domains with Some d -> d | None -> Pool.default_domains ());
      obs;
      algo_policy = policy;
      index_cache = Exec.index_cache ();
      telemetry;
      frame_storage;
      morsel;
    }

  let make ?plane ?domains ?policy ?obs ?telemetry ?storage ?morsel () =
    let base = of_env ?obs () in
    {
      base with
      plane = Option.value plane ~default:base.plane;
      domains = (match domains with Some d -> max 1 d | None -> base.domains);
      algo_policy = Option.value policy ~default:base.algo_policy;
      telemetry =
        (match telemetry with Some _ -> telemetry | None -> base.telemetry);
      frame_storage = Option.value storage ~default:base.frame_storage;
      morsel =
        (match morsel with Some m -> Some (max 1 m) | None -> base.morsel);
    }

  let backend c = backend_of_plane c.plane
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
  Planner.lower ~policy:cfg.algo_policy ~indexes:cfg.index_cache db strategy

(* A warm frame dictionary only means something on the frame plane; the
   seed plane ignores it (its warm state is the index cache the config
   already carries). *)
let execute_plan ?fdb (cfg : Config.t) db plan =
  counting_forced cfg db @@ fun () ->
  match cfg.plane with
  | Seed ->
      let r, s = Exec.execute ~obs:cfg.obs ~cache:cfg.index_cache db plan in
      (r, of_seed s)
  | Frame ->
      let r, s =
        Frame_engine.execute_plan ~obs:cfg.obs ~domains:cfg.domains
          ?morsel:cfg.morsel ~storage:cfg.frame_storage ?fdb db plan
      in
      (r, of_frame s)

let execute_digest ?fdb (cfg : Config.t) db plan =
  counting_forced cfg db @@ fun () ->
  match cfg.plane with
  | Seed ->
      let d, s =
        Exec.execute_digest ~obs:cfg.obs ~cache:cfg.index_cache db plan
      in
      (d, of_seed s)
  | Frame ->
      let d, s =
        Frame_engine.execute_digest ~obs:cfg.obs ~domains:cfg.domains
          ?morsel:cfg.morsel ~storage:cfg.frame_storage ?fdb db plan
      in
      (d, of_frame s)

let run ?fdb cfg db strategy = execute_plan ?fdb cfg db (lower cfg db strategy)

open Mj_relation
open Multijoin
module Json = Mj_obs.Json
module Planner = Mj_engine.Planner
module Engine = Mj_engine.Engine

type workload = {
  shape : string;
  n : int;
  rows : int;
  domain : int;
  regime : string;
  seed : int;
}

let default_workload =
  { shape = "chain"; n = 3; rows = 16; domain = 16; regime = "uniform"; seed = 0 }

(* One [Random.State] drives both the (random) shape draw and the data
   fill, so the database is a pure function of the workload and the
   state's seed. *)
let materialize ?rng w =
  let rng =
    match rng with Some rng -> rng | None -> Random.State.make [| w.seed |]
  in
  let shape =
    match List.assoc_opt w.shape Mj_workload.Dbgen.shapes with
    | Some shape -> shape
    | None -> invalid_arg (Printf.sprintf "unknown shape %s" w.shape)
  in
  Mj_workload.Dbgen.of_regime ~regime:w.regime ~rng ~rows:w.rows
    ~domain:w.domain (shape ~rng w.n)

let default_strategy db = Strategy.left_deep (Database.scheme_list db)

let workload_key w =
  Printf.sprintf "%s n=%d rows=%d domain=%d regime=%s seed=%d" w.shape w.n
    w.rows w.domain w.regime w.seed

(* ------------------------------------------------------------------ *)
(* Requests                                                            *)

type query = {
  workload : workload;
  policy : Planner.policy;
  plane : Engine.plane option;
  strategy : string option;
}

type op = Query of query | Stats | Invalidate | Ping | Shutdown
type request = { id : int option; op : op }

let ( let* ) = Result.bind

let int_field name default j =
  match Json.member name j with
  | None -> Ok default
  | Some (Json.Num v) when Float.is_integer v -> Ok (int_of_float v)
  | Some _ -> Error (Printf.sprintf "field %s must be an integer" name)

(* The largest workload one request may name.  Materializing fills
   [rows] cells per column of every relation, and the superkey and
   skewed regimes allocate arrays of [domain] entries, so an unbounded
   field would let one line make the daemon allocate without limit. *)
let max_n = 16
let max_rows = 10_000
let max_domain = 100_000

let bounded_field name default lo hi j =
  match int_field name default j with
  | Ok v when v < lo || v > hi ->
      Error (Printf.sprintf "field %s must be between %d and %d" name lo hi)
  | r -> r

let str_field name default j =
  match Json.member name j with
  | None -> Ok default
  | Some (Json.Str s) -> Ok (String.lowercase_ascii (String.trim s))
  | Some _ -> Error (Printf.sprintf "field %s must be a string" name)

let parse_query j =
  let* shape = str_field "shape" default_workload.shape j in
  let* () =
    if List.mem_assoc shape Mj_workload.Dbgen.shapes then Ok ()
    else Error (Printf.sprintf "unknown shape %s" shape)
  in
  let* regime = str_field "regime" default_workload.regime j in
  let* () =
    if List.mem regime Mj_workload.Dbgen.regimes then Ok ()
    else Error (Printf.sprintf "unknown regime %s" regime)
  in
  let* n = bounded_field "n" default_workload.n 1 max_n j in
  let* rows = bounded_field "rows" default_workload.rows 0 max_rows j in
  let* domain = bounded_field "domain" default_workload.domain 1 max_domain j in
  let* seed = int_field "seed" default_workload.seed j in
  let* policy_s = str_field "policy" "hash" j in
  let* policy =
    match Planner.policy_of_string policy_s with
    | Some p -> Ok p
    | None -> Error (Printf.sprintf "unknown policy %s" policy_s)
  in
  let* plane =
    match Json.member "plane" j with
    | None -> Ok None
    | Some (Json.Str s) -> (
        match Engine.plane_of_string s with
        | Some p -> Ok (Some p)
        | None -> Error (Printf.sprintf "unknown plane %s" s))
    | Some _ -> Error "field plane must be a string"
  in
  let* strategy =
    match Json.member "strategy" j with
    | None -> Ok None
    | Some (Json.Str s) -> (
        (* Parse eagerly so a syntax error is a structured parse error,
           not a mid-execution exception. *)
        match Strategy.of_string s with
        | _ -> Ok (Some s)
        | exception Invalid_argument msg ->
            Error (Printf.sprintf "bad strategy: %s" msg))
    | Some _ -> Error "field strategy must be a string"
  in
  Ok
    (Query
       {
         workload = { shape; n; rows; domain; regime; seed };
         policy;
         plane;
         strategy;
       })

let parse line =
  match Json.of_string_opt line with
  | None -> Error "malformed JSON"
  | Some j ->
      let id =
        match Json.member "id" j with
        | Some (Json.Num v) when Float.is_integer v ->
            Some (int_of_float v)
        | _ -> None
      in
      let op =
        let* op = str_field "op" "query" j in
        match op with
        | "query" -> parse_query j
        | "stats" -> Ok Stats
        | "invalidate" -> Ok Invalidate
        | "ping" -> Ok Ping
        | "shutdown" -> Ok Shutdown
        | s -> Error (Printf.sprintf "unknown op %s" s)
      in
      Result.map (fun op -> { id; op }) op

(* ------------------------------------------------------------------ *)
(* Responses                                                           *)

let with_id id fields =
  match id with Some i -> ("id", Json.int i) :: fields | None -> fields

let ok ~id fields =
  Json.to_string (Json.Obj (with_id id (("status", Json.str "ok") :: fields)))

let error ~id ~code msg =
  Json.to_string
    (Json.Obj
       (with_id id
          [
            ("status", Json.str "error");
            ("code", Json.str code);
            ("error", Json.str msg);
          ]))

let overloaded ~id =
  Json.to_string (Json.Obj (with_id id [ ("status", Json.str "overloaded") ]))

let status_of_response line =
  match Json.of_string_opt line with
  | None -> "invalid"
  | Some j -> (
      match Json.member "status" j with
      | Some (Json.Str s) -> s
      | _ -> "invalid")

let steps_json per_step =
  Json.Arr
    (List.map
       (fun (d, rows) ->
         Json.Obj
           [
             ("scheme", Json.str (Format.asprintf "%a" Scheme.Set.pp d));
             ("rows", Json.int rows);
           ])
       per_step)

(* ------------------------------------------------------------------ *)
(* Result digests                                                      *)

let result_hash = Relation.digest
let hash_hex h = Printf.sprintf "%016Lx" h

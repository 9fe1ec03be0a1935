open Mj_hypergraph
open Multijoin
module Dbgen = Mj_workload.Dbgen

type shape = Chain | Star | Cycle | Clique | Random_graph | Path | Snowflake
type regime = Uniform | Skewed | Superkey

type descriptor = {
  seed : int;
  shape : shape;
  n : int;
  rows : int;
  domain : int;
  regime : regime;
}

let shape_name = function
  | Chain -> "chain"
  | Star -> "star"
  | Cycle -> "cycle"
  | Clique -> "clique"
  | Random_graph -> "random"
  | Path -> "path"
  | Snowflake -> "snowflake"

let shape_of_name = function
  | "chain" -> Some Chain
  | "star" -> Some Star
  | "cycle" -> Some Cycle
  | "clique" -> Some Clique
  | "random" -> Some Random_graph
  | "path" -> Some Path
  | "snowflake" -> Some Snowflake
  | _ -> None

let regime_name = function
  | Uniform -> "uniform"
  | Skewed -> "skewed"
  | Superkey -> "superkey"

let regime_of_name = function
  | "uniform" -> Some Uniform
  | "skewed" -> Some Skewed
  | "superkey" -> Some Superkey
  | _ -> None

(* Ranks orient the shrink order: lower is simpler.  The two acyclic
   shapes added for the yann path are APPENDED (5, 6): the rank feeds
   the materialize RNG seed, so renumbering would silently change every
   committed repro descriptor. *)
let shape_rank = function
  | Chain -> 0
  | Star -> 1
  | Cycle -> 2
  | Clique -> 3
  | Random_graph -> 4
  | Path -> 5
  | Snowflake -> 6
let regime_rank = function Uniform -> 0 | Skewed -> 1 | Superkey -> 2

let min_n = function
  | Cycle | Clique -> 3
  | Chain | Star | Random_graph | Path | Snowflake -> 2

let normalize d =
  let n = max (min_n d.shape) d.n in
  let rows = max 1 d.rows in
  let domain = max 1 d.domain in
  (* superkey_db requires injective columns, hence rows ≤ domain. *)
  let domain = if d.regime = Superkey then max domain rows else domain in
  { d with seed = max 0 d.seed; n; rows; domain }

let materialize d =
  let d = normalize d in
  let rng =
    Random.State.make
      [|
        0x6a0; d.seed; shape_rank d.shape; d.n; d.rows; d.domain;
        regime_rank d.regime;
      |]
  in
  let scheme =
    match d.shape with
    | Chain -> Querygraph.chain d.n
    | Star -> Querygraph.star d.n
    | Cycle -> Querygraph.cycle d.n
    | Clique -> Querygraph.clique d.n
    | Random_graph -> Querygraph.random ~extra_edge_prob:0.3 ~rng d.n
    | Path -> Querygraph.path d.n
    | Snowflake -> Querygraph.snowflake ~fanout:2 d.n
  in
  let db =
    match d.regime with
    | Uniform -> Dbgen.uniform_db ~rng ~rows:d.rows ~domain:d.domain scheme
    | Skewed ->
        Dbgen.skewed_db ~rng ~rows:d.rows ~domain:d.domain ~skew:1.2 scheme
    | Superkey -> Dbgen.superkey_db ~rng ~rows:d.rows ~domain:d.domain scheme
  in
  (db, Enumerate.random_strategy ~rng scheme)

let generate rng ~max_n =
  let pick xs = List.nth xs (Random.State.int rng (List.length xs)) in
  normalize
    {
      seed = Random.State.int rng 100_000;
      shape = pick [ Chain; Star; Cycle; Clique; Random_graph; Path; Snowflake ];
      n = 2 + Random.State.int rng (max 1 (max_n - 1));
      rows = 1 + Random.State.int rng 8;
      domain = 1 + Random.State.int rng 8;
      regime = pick [ Uniform; Skewed; Superkey ];
    }

(* The well-founded shrink order: lexicographic on (relations, shape,
   regime, rows, domain).  Every candidate below strictly decreases
   it, so greedy minimization terminates. *)
let measure d =
  (d.n, shape_rank d.shape, regime_rank d.regime, d.rows, d.domain)

let shrink d =
  let candidates =
    List.concat_map
      (fun n -> [ { d with n } ])
      (List.sort_uniq compare [ 2; d.n / 2; d.n - 1 ])
    @ [ { d with shape = Chain } ]
    (* A fault that needs a cyclic core shrinks onto a cycle, where
       every smaller cycle stays cyclic. *)
    @ (if d.n >= 3 then [ { d with shape = Cycle } ] else [])
    @ [ { d with regime = Uniform } ]
    @ List.concat_map
        (fun rows -> [ { d with rows } ])
        (List.sort_uniq compare [ 1; d.rows / 2; d.rows - 1 ])
    @ List.concat_map
        (fun domain -> [ { d with domain } ])
        (List.sort_uniq compare [ 1; d.domain / 2; d.domain - 1 ])
  in
  candidates
  |> List.map normalize
  |> List.filter (fun c -> compare (measure c) (measure d) < 0)

let to_string d =
  let d = normalize d in
  String.concat "\n"
    [
      Printf.sprintf "seed=%d" d.seed;
      Printf.sprintf "shape=%s" (shape_name d.shape);
      Printf.sprintf "n=%d" d.n;
      Printf.sprintf "rows=%d" d.rows;
      Printf.sprintf "domain=%d" d.domain;
      Printf.sprintf "regime=%s" (regime_name d.regime);
    ]
  ^ "\n"

let default =
  { seed = 0; shape = Chain; n = 2; rows = 3; domain = 3; regime = Uniform }

(* Parses [to_string] plus the repro-file extension keys, returning
   unconsumed (key, value) pairs so [Fuzz] can layer its own fields on
   the same format. *)
let parse_lines s =
  let lines = String.split_on_char '\n' s in
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | line :: rest ->
        let line = String.trim line in
        if line = "" || line.[0] = '#' then go acc rest
        else begin
          match String.index_opt line '=' with
          | None -> Error (Printf.sprintf "malformed line %S (expected key=value)" line)
          | Some i ->
              let key = String.trim (String.sub line 0 i) in
              let value =
                String.trim (String.sub line (i + 1) (String.length line - i - 1))
              in
              go ((key, value) :: acc) rest
        end
  in
  go [] lines

let int_field key v =
  match int_of_string_opt v with
  | Some i -> Ok i
  | None -> Error (Printf.sprintf "%s: expected an integer, got %S" key v)

let of_pairs pairs =
  let rec go d leftover = function
    | [] -> Ok (normalize d, List.rev leftover)
    | (key, v) :: rest -> (
        let continue r =
          match r with Ok d -> go d leftover rest | Error _ as e -> e
        in
        match key with
        | "seed" -> continue (Result.map (fun seed -> { d with seed }) (int_field key v))
        | "n" -> continue (Result.map (fun n -> { d with n }) (int_field key v))
        | "rows" -> continue (Result.map (fun rows -> { d with rows }) (int_field key v))
        | "domain" ->
            continue (Result.map (fun domain -> { d with domain }) (int_field key v))
        | "shape" -> (
            match shape_of_name v with
            | Some shape -> go { d with shape } leftover rest
            | None -> Error (Printf.sprintf "shape: unknown shape %S" v))
        | "regime" -> (
            match regime_of_name v with
            | Some regime -> go { d with regime } leftover rest
            | None -> Error (Printf.sprintf "regime: unknown regime %S" v))
        | _ -> go d ((key, v) :: leftover) rest)
  in
  go default [] pairs

let of_string s =
  match parse_lines s with
  | Error _ as e -> e
  | Ok pairs -> (
      match of_pairs pairs with
      | Error _ as e -> e
      | Ok (d, []) -> Ok d
      | Ok (_, (key, _) :: _) -> Error (Printf.sprintf "unknown key %S" key))

let pp fmt d =
  let d = normalize d in
  Format.fprintf fmt "%s-%d seed=%d rows=%d domain=%d %s" (shape_name d.shape)
    d.n d.seed d.rows d.domain (regime_name d.regime)

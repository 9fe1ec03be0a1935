open Multijoin
module Protocol = Mj_serve.Protocol

type descriptor = Protocol.workload = {
  shape : string;
  n : int;
  rows : int;
  domain : int;
  regime : string;
  seed : int;
}

(* Ranks orient the shrink order (lower is simpler) and feed the
   materialize RNG seed, so a name's rank is its index here and new
   names are APPENDED: renumbering would silently change every
   committed repro descriptor.  [path] and [snowflake] came with the
   yann path. *)
let shapes =
  [ "chain"; "star"; "cycle"; "clique"; "random"; "path"; "snowflake" ]

let regimes = [ "uniform"; "skewed"; "superkey" ]

let rank names name =
  let rec go i = function
    | [] ->
        invalid_arg
          (Printf.sprintf "Gen: %s is not one of %s" name
             (String.concat ", " names))
    | x :: rest -> if x = name then i else go (i + 1) rest
  in
  go 0 names

let normalize d =
  (* An unknown name is rejected before any field is clamped. *)
  ignore (rank shapes d.shape, rank regimes d.regime);
  let min_n = match d.shape with "cycle" | "clique" -> 3 | _ -> 2 in
  let n = max min_n d.n in
  let rows = max 1 d.rows in
  let domain = max 1 d.domain in
  (* superkey_db requires injective columns, hence rows ≤ domain. *)
  let domain = if d.regime = "superkey" then max domain rows else domain in
  { d with seed = max 0 d.seed; n; rows; domain }

let materialize d =
  let d = normalize d in
  let rng =
    Random.State.make
      [|
        0x6a0; d.seed; rank shapes d.shape; d.n; d.rows; d.domain;
        rank regimes d.regime;
      |]
  in
  let db = Protocol.materialize ~rng d in
  (db, Enumerate.random_strategy ~rng (Mj_relation.Database.schemes db))

(* Every committed campaign's case list was drawn in this order
   (regime, domain, rows, n, shape, seed); another order would change
   it. *)
let generate rng ~max_n =
  let pick xs = List.nth xs (Random.State.int rng (List.length xs)) in
  let regime = pick regimes in
  let domain = 1 + Random.State.int rng 8 in
  let rows = 1 + Random.State.int rng 8 in
  let n = 2 + Random.State.int rng (max 1 (max_n - 1)) in
  let shape = pick shapes in
  let seed = Random.State.int rng 100_000 in
  normalize { shape; n; rows; domain; regime; seed }

(* The well-founded shrink order: lexicographic on (relations, shape,
   regime, rows, domain).  Every candidate below strictly decreases
   it, so greedy minimization terminates. *)
let measure d =
  (d.n, rank shapes d.shape, rank regimes d.regime, d.rows, d.domain)

let shrink d =
  let candidates =
    List.concat_map
      (fun n -> [ { d with n } ])
      (List.sort_uniq compare [ 2; d.n / 2; d.n - 1 ])
    @ [ { d with shape = "chain" } ]
    (* A fault that needs a cyclic core shrinks onto a cycle, where
       every smaller cycle stays cyclic. *)
    @ (if d.n >= 3 then [ { d with shape = "cycle" } ] else [])
    @ [ { d with regime = "uniform" } ]
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
      Printf.sprintf "shape=%s" d.shape;
      Printf.sprintf "n=%d" d.n;
      Printf.sprintf "rows=%d" d.rows;
      Printf.sprintf "domain=%d" d.domain;
      Printf.sprintf "regime=%s" d.regime;
    ]
  ^ "\n"

let default =
  { seed = 0; shape = "chain"; n = 2; rows = 3; domain = 3; regime = "uniform" }

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
        | "shape" ->
            if List.mem v shapes then go { d with shape = v } leftover rest
            else Error (Printf.sprintf "shape: unknown shape %S" v)
        | "regime" ->
            if List.mem v regimes then go { d with regime = v } leftover rest
            else Error (Printf.sprintf "regime: unknown regime %S" v)
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
  Format.fprintf fmt "%s-%d seed=%d rows=%d domain=%d %s" d.shape d.n d.seed
    d.rows d.domain d.regime

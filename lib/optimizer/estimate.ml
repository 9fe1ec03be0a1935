open Mj_relation

type oracle = Scheme.Set.t -> int

let clamp x =
  (* Leave 15 bits of headroom above the per-step cap so a plan of tens
     of thousands of steps can still sum its step costs in an int. *)
  let ceiling = float_of_int (max_int asr 15) in
  if Float.is_nan x || x < 1.0 then 1
  else if x > ceiling then max_int / 4
  else int_of_float (Float.round x)

let of_catalog cat schemes_set =
  let schemes = Scheme.Set.elements schemes_set in
  let numerator =
    List.fold_left
      (fun acc s -> acc *. float_of_int (Catalog.cardinality cat s))
      1.0 schemes
  in
  if numerator = 0.0 then 0
  else begin
    let universe = Scheme.Set.universe schemes_set in
    let denominator =
      Attr.Set.fold
        (fun a acc ->
          let holders = List.filter (fun s -> Attr.Set.mem a s) schemes in
          match holders with
          | [] | [ _ ] -> acc
          | _ ->
              let max_v =
                List.fold_left
                  (fun m s -> max m (Catalog.distinct cat s a))
                  1 holders
              in
              acc
              *. Float.pow (float_of_int max_v)
                   (float_of_int (List.length holders - 1)))
        universe 1.0
    in
    clamp (numerator /. denominator)
  end

let graph_model ~card ~selectivity d schemes_set =
  ignore d;
  let numerator = Scheme.Set.fold (fun s acc -> acc *. card s) schemes_set 1.0 in
  clamp
    (List.fold_left
       (fun acc (s, s') -> acc *. selectivity s s')
       numerator
       (Mj_hypergraph.Querygraph.edges schemes_set))

(* ------------------------------------------------------------------ *)
(* Most-common-value statistics                                         *)
(* ------------------------------------------------------------------ *)

module Vmap = Map.Make (Value)

type column_stats = {
  mcv : (Value.t * int) list;  (* top-k values with exact counts *)
  rest_rows : int;             (* rows outside the MCV list *)
  rest_distinct : int;         (* distinct values outside the MCV list *)
}

let column_stats ~k r a =
  let freq =
    Relation.fold
      (fun tu acc ->
        let v = Tuple.get tu a in
        Vmap.update v (function None -> Some 1 | Some c -> Some (c + 1)) acc)
      r Vmap.empty
  in
  let sorted =
    Vmap.bindings freq
    |> List.sort (fun (_, c1) (_, c2) -> Int.compare c2 c1)
  in
  let rec split i kept rest_rows rest_distinct = function
    | [] -> (List.rev kept, rest_rows, rest_distinct)
    | (v, c) :: tail ->
        if i < k then split (i + 1) ((v, c) :: kept) rest_rows rest_distinct tail
        else split (i + 1) kept (rest_rows + c) (rest_distinct + 1) tail
  in
  let mcv, rest_rows, rest_distinct = split 0 [] 0 0 sorted in
  { mcv; rest_rows; rest_distinct }

(* Estimated number of matching row pairs on one shared attribute. *)
let mcv_matches s1 s2 =
  let lookup stats v = List.assoc_opt v stats.mcv in
  let rest_avg stats =
    if stats.rest_distinct = 0 then 0.0
    else float_of_int stats.rest_rows /. float_of_int stats.rest_distinct
  in
  let exact =
    List.fold_left
      (fun acc (v, c1) ->
        match lookup s2 v with
        | Some c2 -> acc +. (float_of_int c1 *. float_of_int c2)
        | None -> acc)
      0.0 s1.mcv
  in
  (* MCVs of one side falling outside the other's list match the other's
     average remainder frequency; remainders pair up uniformly. *)
  let cross =
    List.fold_left
      (fun acc (v, c1) ->
        match lookup s2 v with
        | Some _ -> acc
        | None -> acc +. (float_of_int c1 *. rest_avg s2))
      0.0 s1.mcv
    +. List.fold_left
         (fun acc (v, c2) ->
           match lookup s1 v with
           | Some _ -> acc
           | None -> acc +. (float_of_int c2 *. rest_avg s1))
         0.0 s2.mcv
  in
  let rest =
    let d = max s1.rest_distinct s2.rest_distinct in
    if d = 0 then 0.0
    else float_of_int s1.rest_rows *. float_of_int s2.rest_rows /. float_of_int d
  in
  exact +. cross +. rest

let mcv_selectivity ?(k = 8) db scheme1 scheme2 =
  let shared = Attr.Set.inter scheme1 scheme2 in
  if Attr.Set.is_empty shared then 1.0
  else begin
    let r1 = Database.find db scheme1 and r2 = Database.find db scheme2 in
    let n1 = float_of_int (Relation.cardinality r1) in
    let n2 = float_of_int (Relation.cardinality r2) in
    if n1 = 0.0 || n2 = 0.0 then 0.0
    else
      Attr.Set.fold
        (fun a acc ->
          let s1 = column_stats ~k r1 a and s2 = column_stats ~k r2 a in
          acc *. (mcv_matches s1 s2 /. (n1 *. n2)))
        shared 1.0
  end

let of_database_mcv ?k db =
  let d = Database.schemes db in
  let card s = float_of_int (Relation.cardinality (Database.find db s)) in
  (* Memoize the pairwise selectivities: the oracle is consulted for
     every DP subset. *)
  let memo = Hashtbl.create 64 in
  let selectivity s1 s2 =
    let key =
      let k1 = Scheme.to_string s1 and k2 = Scheme.to_string s2 in
      if k1 <= k2 then (k1, k2) else (k2, k1)
    in
    match Hashtbl.find_opt memo key with
    | Some v -> v
    | None ->
        let v = mcv_selectivity ?k db s1 s2 in
        Hashtbl.add memo key v;
        v
  in
  graph_model ~card ~selectivity d

let edge_selectivities cat d =
  List.map
    (fun (s, s') ->
      let sel =
        Attr.Set.fold
          (fun a acc ->
            let v = max (Catalog.distinct cat s a) (Catalog.distinct cat s' a) in
            acc /. float_of_int (max 1 v))
          (Attr.Set.inter s s') 1.0
      in
      (s, s', sel))
    (Mj_hypergraph.Querygraph.edges d)

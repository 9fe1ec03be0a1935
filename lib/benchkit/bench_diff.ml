(* Bench regression gate: diff two BENCH_*.json trajectory files.

   Every leg writes Bench_core's one schema: a "rows" array and a
   top-level "key" naming the identity fields.  Rows are matched on
   their key values, and every "*_ms" field present in both copies of
   a matched row is compared against a percentage threshold.  Rows
   present on only one side (a --quick grid against a full one) are
   reported but are not regressions. *)

module Json = Mj_obs.Json

type comparison = {
  key : string;  (* identity fields rendered "k=v k=v ..." *)
  field : string;  (* the timing field, e.g. "frame_ms" *)
  old_ms : float;
  new_ms : float;
  delta_pct : float;  (* (new - old) / old * 100; +inf when old = 0 *)
}

type report = {
  compared : comparison list;  (* every matched (row, field) pair *)
  regressions : comparison list;  (* delta_pct > threshold *)
  only_old : string list;  (* row keys missing from the new file *)
  only_new : string list;
}

let is_timing_field name =
  let n = String.length name in
  n > 3 && String.sub name (n - 3) 3 = "_ms"

let is_clamped row = Json.member "clamped" row = Some (Json.Bool true)

let row_fields = function Json.Obj fields -> fields | _ -> []

let render_value = function
  | Json.Str s -> s
  | Json.Num v ->
      if Float.is_integer v then Printf.sprintf "%.0f" v
      else Printf.sprintf "%g" v
  | Json.Bool b -> string_of_bool b
  | Json.Null -> "null"
  | j -> Json.to_string j

let row_key names row =
  String.concat " "
    (List.map
       (fun k ->
         Printf.sprintf "%s=%s" k
           (render_value (Option.value ~default:Json.Null (Json.member k row))))
       names)

let key_of doc =
  match Json.member "key" doc with
  | Some (Json.Arr names) ->
      List.map
        (function
          | Json.Str k -> k
          | _ -> failwith "bench-diff: \"key\" must list field names")
        names
  | _ -> failwith "bench-diff: no \"key\" array in bench file"

let timing_fields row =
  List.filter_map
    (fun (k, v) ->
      match v with
      | Json.Num ms when is_timing_field k -> Some (k, ms)
      | _ -> None)
    (row_fields row)

let rows_of doc =
  match Json.member "rows" doc with
  | Some (Json.Arr rows) -> rows
  | _ -> failwith "bench-diff: no \"rows\" array in bench file"

let delta_pct ~old_ms ~new_ms =
  if old_ms > 0.0 then (new_ms -. old_ms) /. old_ms *. 100.0
  else if new_ms > old_ms then infinity
  else 0.0

let diff ~threshold old_doc new_doc =
  let keyed doc =
    let names = key_of doc in
    List.map (fun r -> (row_key names r, r)) (rows_of doc)
  in
  let old_rows = keyed old_doc and new_rows = keyed new_doc in
  let compared =
    List.concat_map
      (fun (key, orow) ->
        match List.assoc_opt key new_rows with
        | None -> []
        | Some nrow when is_clamped orow || is_clamped nrow ->
            (* A clamped cell (domains > cores on either machine) timed
               oversubscription noise; comparing it would gate CI on
               scheduler jitter.  The row still matched, so it is not
               reported missing. *)
            []
        | Some nrow ->
            let ntimes = timing_fields nrow in
            List.filter_map
              (fun (field, old_ms) ->
                Option.map
                  (fun new_ms ->
                    { key; field; old_ms; new_ms;
                      delta_pct = delta_pct ~old_ms ~new_ms })
                  (List.assoc_opt field ntimes))
              (timing_fields orow))
      old_rows
  in
  let regressions = List.filter (fun c -> c.delta_pct > threshold) compared in
  let missing a b =
    List.filter_map
      (fun (key, _) ->
        if List.mem_assoc key b then None else Some key)
      a
  in
  { compared; regressions;
    only_old = missing old_rows new_rows;
    only_new = missing new_rows old_rows }

(* Synthetic regression: every timing field inflated by [pct] percent.
   Drives the CI self-check that the gate actually trips. *)
let inflate ~pct doc =
  let scale = 1.0 +. (pct /. 100.0) in
  let scale_row row =
    Json.Obj
      (List.map
         (fun (k, v) ->
           match v with
           | Json.Num ms when is_timing_field k -> (k, Json.float (ms *. scale))
           | _ -> (k, v))
         (row_fields row))
  in
  match doc with
  | Json.Obj fields ->
      Json.Obj
        (List.map
           (fun (k, v) ->
             match (k, v) with
             | "rows", Json.Arr rows -> ("rows", Json.Arr (List.map scale_row rows))
             | _ -> (k, v))
           fields)
  | j -> j

let load path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let n = in_channel_length ic in
      let s = really_input_string ic n in
      match Json.of_string_opt (String.trim s) with
      | Some j -> j
      | None -> failwith (path ^ ": not valid JSON"))

let pp_comparison fmt c =
  Format.fprintf fmt "%-12s %10.3f -> %10.3f ms  %+7.1f%%  %s" c.field
    c.old_ms c.new_ms c.delta_pct c.key

let pp_report ~threshold fmt r =
  Format.fprintf fmt "bench-diff: %d comparisons, %d regression(s) over %g%%@."
    (List.length r.compared)
    (List.length r.regressions)
    threshold;
  List.iter
    (fun c ->
      let flag = if c.delta_pct > threshold then "REGRESSION" else "ok" in
      Format.fprintf fmt "  %-10s %a@." flag pp_comparison c)
    r.compared;
  List.iter
    (fun k -> Format.fprintf fmt "  only-old   %s@." k)
    r.only_old;
  List.iter
    (fun k -> Format.fprintf fmt "  only-new   %s@." k)
    r.only_new

module Json = Mj_obs.Json
module Obs = Mj_obs.Obs

type field =
  | Key of Json.t
  | Ms of float
  | Out of Json.t
  | Check of bool
  | Info of Json.t

type row = {
  fields : (string * field) list;
  checks : (string * bool) list;
  floor : float option;
  clamped : bool;
}

let row ?(checks = []) ?floor ?(clamped = false) fields =
  { fields; checks; floor; clamped }

let speedup base ms =
  ("speedup", Info (Json.float (if ms > 0.0 then base /. ms else 0.0)))

type leg = { name : string; meta : (string * field) list; rows : row list }

(* ------------------------------------------------------------------ *)
(* Timing                                                               *)

let timed f =
  let t0 = Obs.monotonic_time () in
  let r = f () in
  ((Obs.monotonic_time () -. t0) *. 1000.0, r)

(* Fold one timed rep into a running (fastest, last result) pair. *)
let keep best last (ms, r) =
  best := Float.min !best ms;
  last := Some r

let race ~reps f g =
  (* Return memory to the OS first so major-GC slices over a bloated
     heap don't dominate both contenders. *)
  Gc.compact ();
  let fb = ref infinity and fr = ref None in
  let gb = ref infinity and gr = ref None in
  for _ = 1 to reps do
    Gc.full_major ();
    keep fb fr (timed f);
    Gc.full_major ();
    keep gb gr (timed g)
  done;
  ((!fb, Option.get !fr), (!gb, Option.get !gr))

let median xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a.(Array.length a / 2)

let median_of ~reps f =
  Gc.compact ();
  let ms = List.init reps (fun _ -> f ()) in
  (median (List.map fst ms), snd (List.nth ms (reps - 1)))

let race_median ~reps f g =
  Gc.compact ();
  let fs = ref [] and gs = ref [] and fr = ref None and gr = ref None in
  for _ = 1 to reps do
    let ms, r = f () in
    fs := ms :: !fs;
    fr := Some r;
    let ms, r = g () in
    gs := ms :: !gs;
    gr := Some r
  done;
  ((median !fs, Option.get !fr), (median !gs, Option.get !gr))

(* ------------------------------------------------------------------ *)
(* Verdict                                                              *)

let speedup_of r =
  match List.assoc_opt "speedup" r.fields with
  | Some (Info (Json.Num s)) -> Some s
  | _ -> None

let floor_met r =
  match r.floor with
  | None -> true
  | Some f -> ( match speedup_of r with Some s -> s >= f | None -> false)

let all_checks r =
  List.filter_map (function k, Check b -> Some (k, b) | _ -> None) r.fields
  @ r.checks

let render = function
  | Json.Str s -> s
  | Json.Num v when Float.is_integer v && Float.abs v < 1e15 ->
      Printf.sprintf "%.0f" v
  | Json.Num v -> Printf.sprintf "%.4g" v
  | Json.Bool b -> string_of_bool b
  | j -> Json.to_string j

let label r =
  String.concat " "
    (List.filter_map
       (function k, Key j -> Some (k ^ "=" ^ render j) | _ -> None)
       r.fields)

let failures leg =
  List.concat_map
    (fun r ->
      List.filter_map
        (fun (name, ok) -> if ok then None else Some (label r ^ ": " ^ name))
        (all_checks r)
      @
      if floor_met r then []
      else
        [
          Printf.sprintf "%s: speedup %s below floor %.1fx" (label r)
            (match speedup_of r with
            | Some s -> Printf.sprintf "%.2fx" s
            | None -> "missing")
            (Option.get r.floor);
        ])
    leg.rows

(* ------------------------------------------------------------------ *)
(* JSON                                                                 *)

(* The row as written: the floor's two fields follow [speedup], and
   [clamped] closes the row. *)
let written r =
  List.concat_map
    (function
      | ("speedup", _) as s when r.floor <> None ->
          [
            s;
            ("speedup_floor", Info (Json.float (Option.get r.floor)));
            ("speedup_ok", Info (Json.bool (floor_met r)));
          ]
      | f -> [ f ])
    r.fields
  @ [ ("clamped", Info (Json.bool r.clamped)) ]

(* Field names in first-seen order across rows. *)
let union names_of rows =
  List.fold_left
    (fun acc r ->
      acc @ List.filter (fun n -> not (List.mem n acc)) (names_of r))
    [] rows

let key_names rows =
  union
    (fun r ->
      List.filter_map (function k, Key _ -> Some k | _ -> None) r.fields)
    rows

let value = function
  | Key j | Out j | Info j -> j
  | Ms v -> Json.float v
  | Check b -> Json.bool b

(* Every document records the machine's core count ahead of the leg's
   own fields. *)
let meta leg =
  ("cores", Info (Json.int (Domain.recommended_domain_count ()))) :: leg.meta

let document ~keep leg =
  let obj fields =
    List.filter_map
      (fun (k, f) -> if keep f then Some (k, value f) else None)
      fields
  in
  let rows = List.map (fun r -> Json.Obj (obj (written r))) leg.rows in
  Json.Obj
    ((("experiment", Json.str leg.name) :: obj (meta leg))
    @ [
        ("key", Json.Arr (List.map Json.str (key_names leg.rows)));
        ("rows", Json.Arr rows);
      ])

let to_json = document ~keep:(fun _ -> true)

let deterministic_json =
  document ~keep:(function Ms _ | Info _ -> false | _ -> true)

(* ------------------------------------------------------------------ *)
(* Report                                                               *)

let cell = function
  | Check b -> if b then "OK" else "FAIL"
  | Ms v -> Printf.sprintf "%.3f" v
  | f -> render (value f)

let print_table rows =
  let rows = List.map written rows in
  let cols = union (List.map fst) rows in
  let cells =
    List.map
      (fun r ->
        List.map
          (fun c ->
            match List.assoc_opt c r with Some f -> cell f | None -> "-")
          cols)
      rows
  in
  let widths =
    List.fold_left
      (List.map2 (fun w s -> max w (String.length s)))
      (List.map String.length cols)
      cells
  in
  let line cs =
    print_string " ";
    List.iter2 (fun w s -> Printf.printf " %-*s" w s) widths cs;
    print_newline ()
  in
  line cols;
  List.iter line cells

let print_check name ok =
  Printf.printf "  %-58s %s\n" name (if ok then "OK" else "FAIL")

let report leg =
  Printf.printf "  %s\n"
    (String.concat ", "
       (List.map (fun (k, f) -> k ^ ": " ^ cell f) (meta leg)));
  print_table leg.rows;
  List.iter
    (fun name ->
      print_check ("every row: " ^ name)
        (List.for_all
           (fun r ->
             Option.value ~default:true (List.assoc_opt name (all_checks r)))
           leg.rows))
    (union (fun r -> List.map fst (all_checks r)) leg.rows);
  if List.exists (fun r -> r.floor <> None) leg.rows then
    print_check "every floored row meets its speedup floor"
      (List.for_all floor_met leg.rows);
  let failed = failures leg in
  List.iter (Printf.printf "  FAIL %s\n") failed;
  let json = Json.to_string (to_json leg) in
  Printf.printf "  BENCH_JSON %s\n" json;
  let path = "BENCH_" ^ leg.name ^ ".json" in
  Out_channel.with_open_text path (fun oc ->
      output_string oc json;
      output_char oc '\n');
  Printf.printf "  (full report written to %s)\n" path;
  if failed <> [] then exit 1

(* One workload run as it is printed, stored in a set file and read
   back by [mjbench compare]. *)

module Json = Mj_obs.Json

type metric = { value : float; unit_ : string }

type t = {
  workload : string;
  seed : int;
  seconds : float;
  smoke : bool;
  correct : bool;
  attempted : int;
  failed : int;
  invalid : string list;  (** why the run cannot be used; empty if valid *)
  provenance : (string * Json.t) list;
  metrics : (string * metric) list;  (** end-to-end, untraced *)
  layers : (string * metric) list;  (** per-layer, from the traced run *)
}

let metrics_json l =
  Json.Obj
    (List.map
       (fun (k, m) ->
         (k, Json.Obj [ ("value", Json.float m.value); ("unit", Json.str m.unit_) ]))
       l)

let to_json r =
  Json.Obj
    [
      ("workload", Json.str r.workload);
      ("seed", Json.int r.seed);
      ("seconds", Json.float r.seconds);
      ("smoke", Json.bool r.smoke);
      ("correct", Json.bool r.correct);
      ("attempted", Json.int r.attempted);
      ("failed", Json.int r.failed);
      ("invalid", Json.Arr (List.map Json.str r.invalid));
      ("provenance", Json.Obj r.provenance);
      ("metrics", metrics_json r.metrics);
      ("layers", metrics_json r.layers);
    ]

let bad () = invalid_arg "not an mjbench run record"

let get name j = match Json.member name j with Some v -> v | None -> bad ()
let num j = match j with Json.Num f -> f | _ -> bad ()
let int j = int_of_float (num j)
let str = function Json.Str s -> s | _ -> bad ()
let bool = function Json.Bool b -> b | _ -> bad ()
let obj = function Json.Obj l -> l | _ -> bad ()

let metrics_of_json j =
  List.map
    (fun (k, m) -> (k, { value = num (get "value" m); unit_ = str (get "unit" m) }))
    (obj j)

let of_json j =
  {
    workload = str (get "workload" j);
    seed = int (get "seed" j);
    seconds = num (get "seconds" j);
    smoke = bool (get "smoke" j);
    correct = bool (get "correct" j);
    attempted = int (get "attempted" j);
    failed = int (get "failed" j);
    invalid =
      (match get "invalid" j with Json.Arr l -> List.map str l | _ -> bad ());
    provenance = obj (get "provenance" j);
    metrics = metrics_of_json (get "metrics" j);
    layers = metrics_of_json (get "layers" j);
  }

(* A set file holds [{"runs": [...]}], one run per line. *)
let load_set path =
  if not (Sys.file_exists path) then []
  else
    let j = Json.of_string (In_channel.with_open_bin path In_channel.input_all) in
    match get "runs" j with
    | Json.Arr runs -> List.map of_json runs
    | _ -> bad ()

let append path r =
  let runs = load_set path @ [ r ] in
  Out_channel.with_open_bin path (fun oc ->
      output_string oc "{\"runs\": [\n";
      output_string oc
        (String.concat ",\n" (List.map (fun r -> Json.to_string (to_json r)) runs));
      output_string oc "\n]}\n")

(* The result line: every metric the spec names for this kind of run,
   or the names that are missing or carry another unit. *)
let result_line (spec : Spec.t) ~traced r =
  let wanted = if traced then spec.per_layer else spec.end_to_end in
  let have = if traced then r.layers else r.metrics in
  let found, missing =
    List.partition_map
      (fun (m : Spec.metric) ->
        match List.assoc_opt m.name have with
        | Some v when v.unit_ = m.unit_ && Float.is_finite v.value ->
            Either.Left (m.name, v)
        | _ -> Either.Right m.name)
      wanted
  in
  if missing <> [] then Error missing
  else
    Ok
      (Json.to_string
         (Json.Obj
            [
              ("correct", Json.bool r.correct);
              ("attempted", Json.int r.attempted);
              ("failed", Json.int r.failed);
              ("metrics", metrics_json found);
            ]))

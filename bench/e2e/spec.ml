(* BENCHMARK.json: the metric names, units, directions and regression
   bounds every run and every comparison is held to. *)

module Json = Mj_obs.Json

type metric = {
  name : string;
  unit_ : string;
  higher_better : bool;
  bound : float option;  (** share of the base median; end-to-end only *)
}

type t = {
  run_seconds : int;
  workloads : string list;
  end_to_end : metric list;
  per_layer : metric list;
}

let fail fmt = Printf.ksprintf failwith fmt

let field name j =
  match Json.member name j with
  | Some v -> v
  | None -> fail "BENCHMARK.json: missing %s" name

let str = function Json.Str s -> s | _ -> fail "BENCHMARK.json: expected a string"
let num = function Json.Num f -> f | _ -> fail "BENCHMARK.json: expected a number"
let arr = function Json.Arr l -> l | _ -> fail "BENCHMARK.json: expected an array"

let metric j =
  {
    name = str (field "name" j);
    unit_ = str (field "unit" j);
    higher_better =
      (match str (field "better" j) with
      | "higher" -> true
      | "lower" -> false
      | s -> fail "BENCHMARK.json: better must be higher or lower, not %s" s);
    bound = Option.map num (Json.member "bound" j);
  }

let load path =
  let j = Json.of_string (In_channel.with_open_bin path In_channel.input_all) in
  {
    run_seconds = int_of_float (num (field "run_seconds" j));
    workloads = List.map (fun w -> str (field "name" w)) (arr (field "workloads" j));
    end_to_end = List.map metric (arr (field "end_to_end" j));
    per_layer = List.map metric (arr (field "per_layer" j));
  }

(* [mjbench compare]: a base set of runs against a candidate set, per
   workload and end-to-end metric, under the bounds of BENCHMARK.json.

   - worse: the candidate median is worse than the base median by more
     than the bound (a share of the base median);
   - unresolved: the base runs' own interquartile spread exceeds the
     bound, so a change of that size cannot be told from noise, unless
     every candidate run is better (or worse) than every base run;
   - better: with at least 10 pairs (the i-th base run against the
     i-th candidate run), the candidate wins at least 9 in 10 of them
     and the medians differ by more than the base spread;
   - same: otherwise.

   Failures are held to a stricter rule: any increase of the share of
   failed operations is worse. *)

type verdict = Better | Same | Worse | Unresolved

let verdict_name = function
  | Better -> "better"
  | Same -> "same"
  | Worse -> "worse"
  | Unresolved -> "unresolved"

type cell = {
  workload : string;
  metric : string;
  base : float * float * float;  (** q1, median, q3 *)
  cand : float;  (** median *)
  change : float;  (** share of the base median; positive is worse *)
  pairs : int;
  wins : int;
  verdict : verdict;
}

let cell ~workload ~metric ~higher_better ~bound ~base ~cand =
  let better x y = if higher_better then x > y else x < y in
  let q1, bm, q3 = Stats.quartiles base in
  let cm = Stats.median cand in
  let scale = Float.abs bm in
  let change = (if higher_better then bm -. cm else cm -. bm) /. scale in
  let spread = (q3 -. q1) /. scale in
  let every f = List.for_all (fun c -> List.for_all (fun b -> f c b) base) cand in
  let pairs = min (List.length base) (List.length cand) in
  let wins =
    List.length
      (List.filter Fun.id
         (List.init pairs (fun i -> better (List.nth cand i) (List.nth base i))))
  in
  let verdict =
    if spread > bound then
      if every better then Better
      else if every (fun c b -> better b c) && change > bound then Worse
      else Unresolved
    else if change > bound then Worse
    else if
      pairs >= 10
      && wins * 10 >= 9 * pairs
      && change < 0.
      && Float.abs (cm -. bm) > q3 -. q1
    then Better
    else Same
  in
  { workload; metric; base = (q1, bm, q3); cand = cm; change; pairs; wins; verdict }

let fail_share runs =
  let sum f = List.fold_left (fun acc (r : Record.t) -> acc + f r) 0 runs in
  float_of_int (sum (fun r -> r.failed))
  /. float_of_int (max 1 (sum (fun r -> r.attempted)))

let cells (spec : Spec.t) (base : Record.t list) (cand : Record.t list) =
  let of_workload w = List.filter (fun (r : Record.t) -> r.workload = w) in
  List.concat_map
    (fun w ->
      let b = of_workload w base and c = of_workload w cand in
      if b = [] || c = [] then []
      else
        let values runs name =
          List.filter_map
            (fun (r : Record.t) ->
              Option.map
                (fun (m : Record.metric) -> m.value)
                (List.assoc_opt name r.metrics))
            runs
        in
        let metric_cells =
          List.filter_map
            (fun (m : Spec.metric) ->
              match (values b m.name, values c m.name, m.bound) with
              | [], _, _ | _, [], _ | _, _, None -> None
              | base, cand, Some bound ->
                  Some
                    (cell ~workload:w ~metric:m.name ~higher_better:m.higher_better
                       ~bound ~base ~cand))
            spec.end_to_end
        in
        let fb = fail_share b and fc = fail_share c in
        metric_cells
        @ [
            {
              workload = w;
              metric = "fail_ratio";
              base = (fb, fb, fb);
              cand = fc;
              change = fc -. fb;
              pairs = min (List.length b) (List.length c);
              wins = 0;
              verdict = (if fc > fb then Worse else Same);
            };
          ])
    spec.workloads

let pp fmt cells =
  Format.fprintf fmt "%-14s %-12s %12s %23s %12s %8s %6s  %s@." "workload"
    "metric" "base median" "base [q1, q3]" "cand median" "change" "wins"
    "verdict";
  List.iter
    (fun c ->
      let q1, bm, q3 = c.base in
      Format.fprintf fmt "%-14s %-12s %12.4g [%10.4g, %10.4g] %12.4g %+7.1f%% %6s  %s@."
        c.workload c.metric bm q1 q3 c.cand (100. *. c.change)
        (if c.pairs >= 10 then Printf.sprintf "%d/%d" c.wins c.pairs else "-")
        (verdict_name c.verdict))
    cells

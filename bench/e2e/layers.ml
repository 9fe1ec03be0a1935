(* Per-layer attribution over recorded span trees.

   A layer's self time is its span's duration minus the part of that
   interval its child spans cover.  Children recorded on parallel pool
   lanes may overlap each other, so coverage is the length of the
   union of the children's intervals, clipped to the parent. *)

module Obs = Mj_obs.Obs

let covered ~lo ~hi intervals =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = Float.max a lo and b = Float.min b hi in
        if b > a then Some (a, b) else None)
      intervals
    |> List.sort compare
  in
  fst
    (List.fold_left
       (fun (acc, reach) (a, b) ->
         if b <= reach then (acc, reach) else (acc +. b -. Float.max a reach, b))
       (0., lo) clipped)

let bounds (s : Obs.span_tree) = (s.start, s.start +. s.duration)

let children_covered (s : Obs.span_tree) =
  let lo, hi = bounds s in
  covered ~lo ~hi (List.map bounds s.children)

let self_time (s : Obs.span_tree) = s.duration -. children_covered s

(* Share of a root op covered by its direct children, the benchmark's
   named layers; an op with zero duration counts as covered. *)
let coverage (root : Obs.span_tree) =
  if root.duration <= 0. then 1. else children_covered root /. root.duration

type row = { name : string; count : int; busy : float; self : float }

(* Every span name under the given roots (roots included), in
   first-seen pre-order, with its count, summed duration and summed
   self time, in seconds. *)
let table roots =
  let rows = Hashtbl.create 16 and order = ref [] in
  let rec visit (s : Obs.span_tree) =
    let r =
      match Hashtbl.find_opt rows s.name with
      | Some r -> r
      | None ->
          order := s.name :: !order;
          { name = s.name; count = 0; busy = 0.; self = 0. }
    in
    Hashtbl.replace rows s.name
      {
        r with
        count = r.count + 1;
        busy = r.busy +. s.duration;
        self = r.self +. self_time s;
      };
    List.iter visit s.children
  in
  List.iter visit roots;
  List.rev_map (Hashtbl.find rows) !order

let busy table name =
  match List.find_opt (fun r -> r.name = name) table with
  | Some r -> r.busy
  | None -> 0.

let pp_table fmt ~root_busy table =
  Format.fprintf fmt "  %-22s %8s %11s %11s %7s@." "layer" "count" "busy ms"
    "self ms" "share";
  List.iter
    (fun r ->
      Format.fprintf fmt "  %-22s %8d %11.2f %11.2f %6.1f%%@." r.name r.count
        (r.busy *. 1000.) (r.self *. 1000.)
        (if root_busy > 0. then 100. *. r.busy /. root_busy else 0.))
    table

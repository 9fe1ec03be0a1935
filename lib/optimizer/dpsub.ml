open Mj_hypergraph
open Multijoin

(* Subset-driven split order: masks in increasing numeric order (every
   proper submask comes first), each split once with the lowest relation
   anchored in the left part. *)
let run ?obs ?(allow_cp = false) ~oracle d =
  Subset_dp.drive ?obs ~span:"dpsub" ~oracle d @@ fun u dp ->
  for mask = 1 to Bitdb.full u do
    Subset_dp.iter_anchored_splits mask (fun m1 m2 ->
        Subset_dp.offer dp ~usable:(allow_cp || Bitdb.linked u m1 m2) m1 m2)
  done

let plan ?obs ?allow_cp ~oracle d = fst (run ?obs ?allow_cp ~oracle d)
let pairs_considered ?allow_cp d = snd (run ?allow_cp ~oracle:(fun _ -> 1) d)

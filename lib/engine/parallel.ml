open Multijoin

let makespan_oracle oracle s = Subset_dp.strategy_cost Max oracle s
let makespan db s = makespan_oracle (Cost.cardinality_oracle db) s

(* Makespan is compositional per subtree (max of children + step), so
   Optimal's subset DP applies unchanged — same split orders, component
   DP and enumeration fallback — with the combine rule swapped. *)
let optimum_makespan ?(obs = Mj_obs.Obs.noop) ?subspace ~oracle d =
  Mj_obs.Obs.span obs "makespan-dp" @@ fun () ->
  Optimal.optimum_by ~obs ~combine:Max ?subspace ~oracle d

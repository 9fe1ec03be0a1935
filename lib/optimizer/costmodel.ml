open Multijoin

type t =
  | Tuples
  | Cout_inclusive
  | Nested_loop_io of int
  | Hash_cpu

let name = function
  | Tuples -> "tuples"
  | Cout_inclusive -> "cout+in"
  | Nested_loop_io p -> Printf.sprintf "nl-io(%d)" p
  | Hash_cpu -> "hash-cpu"

let pages p n = (n + p - 1) / p

let step_cost model ~left ~right ~out =
  match model with
  | Tuples -> out
  | Cout_inclusive -> left + right + out
  | Nested_loop_io p ->
      if p < 1 then invalid_arg "Costmodel: page size below 1";
      pages p left + (pages p left * pages p right) + out
  | Hash_cpu -> left + right + out

let priced model = Subset_dp.Priced (step_cost model)

let strategy_cost model oracle s =
  Subset_dp.strategy_cost (priced model) oracle s

let optimum ?subspace ~model ~oracle d =
  Optimal.optimum_by ~combine:(priced model) ?subspace ~oracle d

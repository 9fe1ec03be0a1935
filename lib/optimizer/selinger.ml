open Mj_hypergraph
open Multijoin

type cp_policy = [ `Never | `When_needed | `Always ]

(* Split order: masks in increasing numeric order, each peeling one
   relation (highest index first) off as the right-hand leaf; the policy
   decides which peels may be Cartesian products. *)
let plan ?obs ?(cp = `When_needed) ~oracle d =
  fst
  @@ Subset_dp.drive ?obs ~span:"selinger" ~oracle d
  @@ fun u dp ->
  let n = Bitdb.size u in
  for mask = 1 to Bitdb.full u do
    if Bitdb.popcount mask >= 2 then begin
      let peels = ref [] in
      for i = 0 to n - 1 do
        let v = 1 lsl i in
        if mask land v <> 0 then peels := (mask lxor v, v) :: !peels
      done;
      let peels = !peels in
      let linked = List.filter (fun (rest, v) -> Bitdb.linked u rest v) peels in
      let usable =
        match cp with
        | `Always -> peels
        | `Never -> linked
        | `When_needed -> if linked <> [] then linked else peels
      in
      List.iter (fun (rest, v) -> Subset_dp.offer dp ~usable:true rest v) usable
    end
  done

let best_order ?cp ~oracle d =
  Option.map
    (fun (r : Optimal.result) -> Strategy.leaves r.Optimal.strategy)
    (plan ?cp ~oracle d)

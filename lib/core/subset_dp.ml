open Mj_hypergraph
module Obs = Mj_obs.Obs
module Tbl = Hashtbl.Make (Int)

type combine =
  | Sum
  | Max
  | Priced of (left:int -> right:int -> out:int -> int)

type result = {
  strategy : Strategy.t;
  cost : int;
}

(* One reached mask.  [left] is the left part of the winning split, [0]
   until the mask has a plan (a leaf's is the leaf), so a plan whose
   cost saturates at [max_int] is still a plan; [here] is the memoized
   [card] of the mask, [unpriced] until first needed. *)
type entry = { mutable cost : int; mutable left : int; mutable here : int }

let unpriced = min_int
let absent = { cost = max_int; left = 0; here = unpriced }

(* Bottom-up drivers visit every mask, so their table is a flat array
   indexed by mask (hence their relation cap); top-down tables hold only
   the masks their splits reach. *)
type store = Dense of entry array | Sparse of entry Tbl.t

type t = {
  combine : combine;
  card : int -> int;
  store : store;
  mutable pairs : int;
  mutable entries : int;
  mutable pruned : int;
  mutable estimates : int;
}

let is_leaf m = m land (m - 1) = 0

let find dp m =
  match dp.store with
  | Dense a -> a.(m)
  | Sparse t -> ( try Tbl.find t m with Not_found -> absent)

let entry dp m =
  let e = find dp m in
  if e != absent then e
  else begin
    let e = { cost = max_int; left = 0; here = unpriced } in
    (match dp.store with Dense a -> a.(m) <- e | Sparse t -> Tbl.add t m e);
    e
  end

(* Leaves are seeded as entries, priced and final. *)
let make ?(combine = Sum) ?(leaf_cost = fun _ -> 0) ~units store card =
  let dp =
    { combine; card; store; pairs = 0; entries = 0; pruned = 0; estimates = 0 }
  in
  for i = 0 to units - 1 do
    let e = entry dp (1 lsl i) in
    e.cost <- leaf_cost i;
    e.left <- 1 lsl i
  done;
  dp

let create ?combine ?leaf_cost ~units card =
  make ?combine ?leaf_cost ~units (Sparse (Tbl.create 64)) card

let cost_of dp m = (find dp m).cost
let mem dp m = (find dp m).left <> 0
let ( +| ) = Mj_relation.Frame.Db.saturating_add

(* The memoized [card] of mask [m], whose entry is [e]. *)
let[@inline] here dp e m =
  if e.here = unpriced then begin
    dp.estimates <- dp.estimates + 1;
    e.here <- dp.card m
  end;
  e.here

(* A split of [m] (entry [e]) into [m1] and the rest, both parts with
   plans of cost [c1] and [c2]. *)
let price dp e m m1 c1 c2 =
  let out = here dp e m in
  let c =
    match dp.combine with
    | Sum -> c1 +| c2 +| out
    | Max -> max c1 c2 +| out
    | Priced step ->
        let m2 = m lxor m1 in
        c1 +| c2
        +| step ~left:(here dp (find dp m1) m1) ~right:(here dp (find dp m2) m2)
             ~out
  in
  if e.left = 0 || c < e.cost then begin
    if e.left = 0 then dp.entries <- dp.entries + 1;
    e.cost <- c;
    e.left <- m1
  end
  else dp.pruned <- dp.pruned + 1

let offer dp ~usable m1 m2 =
  dp.pairs <- dp.pairs + 1;
  if usable then begin
    if mem dp m1 && mem dp m2 then begin
      let m = m1 lor m2 in
      price dp (entry dp m) m m1 (cost_of dp m1) (cost_of dp m2)
    end
  end

let rec solve_entry dp ~splits m =
  let e = find dp m in
  if e != absent then e
  else begin
    let e = entry dp m in
    splits m (fun m1 m2 ->
        dp.pairs <- dp.pairs + 1;
        let e1 = solve_entry dp ~splits m1 in
        let e2 = solve_entry dp ~splits m2 in
        if e1.left <> 0 && e2.left <> 0 then price dp e m m1 e1.cost e2.cost);
    e
  end

let solve dp ~splits m = ignore (solve_entry dp ~splits m)
let cost dp m = if mem dp m then Some (cost_of dp m) else None

let build dp ~leaf ~node m =
  let rec go m =
    if is_leaf m then leaf (Bitdb.bit_index m)
    else
      let l = (find dp m).left in
      node (go l) (go (m lxor l))
  in
  if mem dp m then Some (go m) else None

let result dp u m =
  Option.map
    (fun strategy -> { strategy; cost = cost_of dp m })
    (build dp ~leaf:(fun i -> Strategy.leaf (Bitdb.scheme u i))
       ~node:Strategy.join m)

let finish dp obs =
  Obs.add obs "opt.pairs_inspected" dp.pairs;
  Obs.add obs "opt.dp_entries" dp.entries;
  Obs.add obs "opt.plans_pruned" dp.pruned;
  Obs.add obs "opt.estimate_calls" dp.estimates

let iter_anchored_splits mask f =
  let anchor = mask land -mask in
  let rest = mask lxor anchor in
  if rest <> 0 then begin
    (* [anchor lor sub] for every submask [sub] of [rest] but [rest]
       itself, in decreasing order. *)
    let sub = ref ((rest - 1) land rest) in
    f (anchor lor !sub) (rest lxor !sub);
    while !sub <> 0 do
      sub := (!sub - 1) land rest;
      f (anchor lor !sub) (rest lxor !sub)
    done
  end

let max_relations = 22

let check_size u =
  if Bitdb.size u > max_relations then
    invalid_arg
      (Printf.sprintf "subset DP: too many relations (max %d)" max_relations)

let drive ?(obs = Obs.noop) ~span ~oracle d f =
  Obs.span obs span @@ fun () ->
  let u = Bitdb.make d in
  check_size u;
  let dp =
    make ~units:(Bitdb.size u)
      (Dense (Array.make (1 lsl Bitdb.size u) absent))
      (fun m -> oracle (Bitdb.set_of_mask u m))
  in
  f u dp;
  finish dp obs;
  (result dp u (Bitdb.full u), dp.pairs)

let rec strategy_cost combine card = function
  | Strategy.Leaf _ -> 0
  | Strategy.Join n -> (
      let c1 = strategy_cost combine card n.left
      and c2 = strategy_cost combine card n.right
      and out = card n.schemes in
      match combine with
      | Sum -> c1 +| c2 +| out
      | Max -> max c1 c2 +| out
      | Priced step ->
          c1 +| c2
          +| step
              ~left:(card (Strategy.schemes n.left))
              ~right:(card (Strategy.schemes n.right))
              ~out)

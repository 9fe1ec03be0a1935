open Mj_hypergraph
open Multijoin
module Obs = Mj_obs.Obs

(* A module (in the IKKBZ sense): a sequence of node indices with its
   aggregate T and C under the ASI cost recurrences
   C(S1 S2) = C(S1) + T(S1) C(S2) and T(S1 S2) = T(S1) T(S2). *)
type chain_module = {
  seq : int list;
  t : float;
  c : float;
}

let rank m = if m.c = 0.0 then neg_infinity else (m.t -. 1.0) /. m.c

let merge_modules m1 m2 =
  { seq = m1.seq @ m2.seq; t = m1.t *. m2.t; c = m1.c +. (m1.t *. m2.c) }

(* Merge rank-ascending chains into one rank-ascending chain. *)
let rec merge_chains ch1 ch2 =
  match ch1, ch2 with
  | [], ch | ch, [] -> ch
  | m1 :: r1, m2 :: r2 ->
      if rank m1 <= rank m2 then m1 :: merge_chains r1 ch2
      else m2 :: merge_chains ch1 r2

(* Restore ascending ranks after prepending a parent module: merge the
   head into its successor while it out-ranks it. *)
let rec settle_head merges_c = function
  | m1 :: m2 :: rest when rank m1 > rank m2 ->
      Obs.incr merges_c 1;
      settle_head merges_c (merge_modules m1 m2 :: rest)
  | chain -> chain

let is_tree g =
  let n = g.Bitdb.n in
  let edge_count = ref 0 in
  for i = 0 to n - 1 do
    edge_count := !edge_count + Bitdb.popcount g.Bitdb.adj.(i)
  done;
  !edge_count / 2 = n - 1 && Bitdb.is_connected g (Bitdb.full g)

(* The IKKBZ root loop over a tree given as neighbour lists: for every
   root, orient the tree by BFS (visiting each node's neighbours in list
   order), normalize it into one rank-ascending chain, price the
   sequence under the ASI model and keep the cheapest root (the first
   on ties). *)
let best_rooted_order ~roots_c ~merges_c ~card ~selectivity g tree_adj =
  let n = g.Bitdb.n in
  let orient root =
    let parent = Array.make n (-1) in
    let children = Array.make n [] in
    let visited = Array.make n false in
    let queue = Queue.create () in
    Queue.add root queue;
    visited.(root) <- true;
    while not (Queue.is_empty queue) do
      let v = Queue.pop queue in
      List.iter
        (fun w ->
          if not visited.(w) then begin
            visited.(w) <- true;
            parent.(w) <- v;
            children.(v) <- w :: children.(v);
            Queue.add w queue
          end)
        tree_adj.(v)
    done;
    (parent, children)
  in
  let best = ref None in
  for root = 0 to n - 1 do
    Obs.incr roots_c 1;
    let parent, children = orient root in
    let node_module i =
      let sel = selectivity g.Bitdb.nodes.(i) g.Bitdb.nodes.(parent.(i)) in
      let t = sel *. card g.Bitdb.nodes.(i) in
      { seq = [ i ]; t; c = t }
    in
    let rec normalize v =
      let child_chains = List.map normalize children.(v) in
      let merged = List.fold_left merge_chains [] child_chains in
      if v = root then merged
      else settle_head merges_c (node_module v :: merged)
    in
    let chain = normalize root in
    let order_ids = root :: List.concat_map (fun m -> m.seq) chain in
    let cost =
      let rec go acc_cost acc_t = function
        | [] -> acc_cost
        | i :: rest ->
            let m = node_module i in
            let t = acc_t *. m.t in
            go (acc_cost +. t) t rest
      in
      go 0.0 (card g.Bitdb.nodes.(root)) (List.tl order_ids)
    in
    match !best with
    | Some (c, _) when c <= cost -> ()
    | _ -> best := Some (cost, order_ids)
  done;
  match !best with
  | Some (_, ids) -> List.map (fun i -> g.Bitdb.nodes.(i)) ids
  | None -> assert false

let order ?(obs = Obs.noop) ~card ~selectivity d =
  let roots_c = Obs.counter obs "opt.roots_tried" in
  let merges_c = Obs.counter obs "opt.rank_merges" in
  Obs.span obs "ikkbz" @@ fun () ->
  let g = Bitdb.make d in
  let n = g.Bitdb.n in
  if n = 1 then [ g.Bitdb.nodes.(0) ]
  else begin
    if not (is_tree g) then invalid_arg "Ikkbz: query graph is not a tree";
    (* Neighbours in ascending index order. *)
    let tree_adj =
      Array.init n (fun v ->
          List.filter
            (fun w -> g.Bitdb.adj.(v) land (1 lsl w) <> 0)
            (List.init n Fun.id))
    in
    best_rooted_order ~roots_c ~merges_c ~card ~selectivity g tree_adj
  end

let plan ?obs ~card ~selectivity d =
  let ord = order ?obs ~card ~selectivity d in
  let strategy = Strategy.left_deep ord in
  let oracle = Estimate.graph_model ~card ~selectivity d in
  { Optimal.strategy; cost = Cost.tau_oracle oracle strategy }

(* Kruskal over ascending selectivity: union-find on node indices. *)
let order_on_spanning_tree ?(obs = Obs.noop) ~card ~selectivity d =
  let roots_c = Obs.counter obs "opt.roots_tried" in
  let merges_c = Obs.counter obs "opt.rank_merges" in
  Obs.span obs "ikkbz-spanning-tree" @@ fun () ->
  let g = Bitdb.make d in
  let n = g.Bitdb.n in
  if not (Bitdb.is_connected g (Bitdb.full g)) then
    invalid_arg "Ikkbz.order_on_spanning_tree: query graph is unconnected";
  if n = 1 then [ g.Bitdb.nodes.(0) ]
  else begin
    let edges = ref [] in
    for i = 0 to n - 1 do
      for j = i + 1 to n - 1 do
        if g.Bitdb.adj.(i) land (1 lsl j) <> 0 then
          edges :=
            (selectivity g.Bitdb.nodes.(i) g.Bitdb.nodes.(j), i, j) :: !edges
      done
    done;
    let edges =
      List.sort (fun (s1, _, _) (s2, _, _) -> Float.compare s1 s2) !edges
    in
    let parent = Array.init n Fun.id in
    let rec find i = if parent.(i) = i then i else find parent.(i) in
    let tree_adj = Array.make n [] in
    List.iter
      (fun (_, i, j) ->
        let ri = find i and rj = find j in
        if ri <> rj then begin
          parent.(ri) <- rj;
          tree_adj.(i) <- j :: tree_adj.(i);
          tree_adj.(j) <- i :: tree_adj.(j)
        end)
      edges;
    (* Run the IKKBZ root loop directly on the spanning tree: dropped
       edges do not participate in the ASI ranks (their selectivity is
       treated as 1 during ordering). *)
    best_rooted_order ~roots_c ~merges_c ~card ~selectivity g tree_adj
  end

open Mj_relation
open Mj_hypergraph

type result = Subset_dp.result = {
  strategy : Strategy.t;
  cost : int;
}

(* ------------------------------------------------------------------ *)
(* Split orders: mask-level partition iterators                         *)
(* ------------------------------------------------------------------ *)

(* The DP breaks cost ties in favour of the first partition seen, so
   each iterator's (left, right) order is part of the observable result;
   test_kernel's order laws pin the Bitdb enumerations underneath. *)

let iter_all_partitions u m f =
  if Bitdb.popcount m > 21 then
    invalid_arg "Hypergraph.binary_partitions: database scheme too large";
  Bitdb.iter_binary_partitions u m f

(* One side must be a single relation; singletons are peeled in
   decreasing scheme order. *)
let iter_linear_partitions u m f =
  for i = Bitdb.size u - 1 downto 0 do
    let b = 1 lsl i in
    if m land b <> 0 then f (m lxor b) b
  done

let iter_connected_partitions u m f =
  iter_all_partitions u m (fun m1 m2 ->
      if Bitdb.is_connected u m1 && Bitdb.is_connected u m2 then f m1 m2)

let iter_linear_connected_partitions u m f =
  iter_linear_partitions u m (fun rest b ->
      if Bitdb.is_connected u rest then f rest b)

(* ------------------------------------------------------------------ *)
(* Subspaces over the core                                              *)
(* ------------------------------------------------------------------ *)

(* Avoid-CP optimum for an arbitrary (possibly unconnected) mask: the
   optimum connected strategy per component, then the best Cartesian
   combination tree over complete components — a second table whose
   units are the components, each a leaf costing its own optimum. *)
let optimum_cp_free ~obs ~combine ~card dp u mask =
  let comps = Array.of_list (Bitdb.components u mask) in
  Array.iter (Subset_dp.solve dp ~splits:(iter_connected_partitions u)) comps;
  match Array.map (Subset_dp.result dp u) comps with
  | [| r |] -> r
  | base when Array.exists Option.is_none base -> None
  | base ->
      let base = Array.map Option.get base in
      let union_of cmask =
        let acc = ref 0 in
        Array.iteri
          (fun i c -> if cmask land (1 lsl i) <> 0 then acc := !acc lor c)
          comps;
        !acc
      in
      let top =
        Subset_dp.create ~combine
          ~leaf_cost:(fun i -> base.(i).cost)
          ~units:(Array.length comps)
          (fun cmask -> card (union_of cmask))
      in
      let full = (1 lsl Array.length comps) - 1 in
      Subset_dp.solve top ~splits:Subset_dp.iter_anchored_splits full;
      Subset_dp.finish top obs;
      Option.map
        (fun strategy -> { strategy; cost = Option.get (Subset_dp.cost top full) })
        (Subset_dp.build top
           ~leaf:(fun i -> base.(i).strategy)
           ~node:Strategy.join full)

let optimum_masked ~obs ~combine ~subspace ~card u mask =
  let dp = Subset_dp.create ~combine ~units:(Bitdb.size u) card in
  let connected splits =
    Subset_dp.solve dp ~splits:(splits u) mask;
    Subset_dp.result dp u mask
  in
  let r =
    match subspace with
    | Enumerate.All -> connected iter_all_partitions
    | Enumerate.Linear -> connected iter_linear_partitions
    | Enumerate.Cp_free -> optimum_cp_free ~obs ~combine ~card dp u mask
    | Enumerate.Linear_cp_free -> connected iter_linear_connected_partitions
  in
  Subset_dp.finish dp obs;
  r

(* Rare case: the linear-cp-free subspace of an unconnected scheme may be
   empty (when a non-first component has two or more relations); fall
   back to enumeration at the Scheme.Set level, first cheapest wins. *)
let linear_cp_free_fallback ~combine ~oracle d =
  List.fold_left
    (fun acc s ->
      let c = Subset_dp.strategy_cost combine oracle s in
      match acc with
      | Some r when r.cost <= c -> acc
      | _ -> Some { strategy = s; cost = c })
    None (Enumerate.linear_cp_free d)

let optimize ?(obs = Mj_obs.Obs.noop) ~combine ~subspace ~oracle ~card d univ =
  if Scheme.Set.is_empty d then invalid_arg "Optimal: empty database scheme";
  let full = Bitdb.full univ in
  match subspace with
  | Enumerate.Linear_cp_free when not (Bitdb.is_connected univ full) ->
      linear_cp_free_fallback ~combine ~oracle d
  | _ -> optimum_masked ~obs ~combine ~subspace ~card univ full

let optimum_by ?obs ~combine ?(subspace = Enumerate.All) ~oracle d =
  let univ = Bitdb.make d in
  optimize ?obs ~combine ~subspace ~oracle
    ~card:(fun m -> oracle (Bitdb.set_of_mask univ m))
    d univ

let optimum_with_oracle ?subspace ~oracle d =
  optimum_by ~combine:Subset_dp.Sum ?subspace ~oracle d

let optimum_cached ?(subspace = Enumerate.All) cache =
  optimize ~combine:Subset_dp.Sum ~subspace ~oracle:(Cost.Cache.card cache)
    ~card:(Cost.Cache.card_mask cache)
    (Database.schemes (Cost.Cache.database cache))
    (Cost.Cache.universe cache)

let optimum ?subspace db = optimum_cached ?subspace (Cost.Cache.create db)

let optimum_exn ?subspace db =
  match optimum ?subspace db with
  | Some r -> r
  | None -> invalid_arg "Optimal.optimum_exn: empty strategy subspace"

(* Theorem 1's conclusion on the linear table.  A linear strategy of m
   (|m| >= 2) is a linear strategy of m - b joined with the relation b,
   and it is optimal iff the split is tight, L(m - b) = L(m) - card(m),
   and its part is optimal for m - b: τ is additive and card(m) is the
   same for every split of m.  So some optimal linear strategy of m
   uses a Cartesian product iff some tight split is unlinked or has a
   part for which the same holds; each mask is decided once. *)
let linear_optima_cp_free cache =
  let u = Cost.Cache.universe cache in
  let card = Cost.Cache.card_mask cache in
  let dp = Subset_dp.create ~units:(Bitdb.size u) card in
  let full = Bitdb.full u in
  Subset_dp.solve dp ~splits:(iter_linear_partitions u) full;
  let best m = Option.get (Subset_dp.cost dp m) in
  let decided = Hashtbl.create 64 in
  let rec some_uses_cp m =
    m land (m - 1) <> 0
    &&
    match Hashtbl.find_opt decided m with
    | Some b -> b
    | None ->
        let rest_cost = best m - card m in
        let found = ref false in
        iter_linear_partitions u m (fun rest b ->
            if
              (not !found)
              && best rest = rest_cost
              && ((not (Bitdb.linked u rest b)) || some_uses_cp rest)
            then found := true);
        Hashtbl.add decided m !found;
        !found
  in
  not (some_uses_cp full)

(* Stream the subspace instead of materializing it: a single fold tracks
   the best cost and the ties seen so far, in enumeration order. *)
let all_optima_with_oracle ~subspace ~oracle d =
  let _, ties =
    Enumerate.fold_strategies subspace d ~init:(max_int, [])
      ~f:(fun (best, ties) s ->
        let c = Cost.tau_oracle oracle s in
        if c < best then (c, [ { strategy = s; cost = c } ])
        else if c = best then (best, { strategy = s; cost = c } :: ties)
        else (best, ties))
  in
  List.rev ties

let all_optima ?(subspace = Enumerate.All) db =
  all_optima_with_oracle ~subspace
    ~oracle:(Cost.cardinality_oracle db)
    (Database.schemes db)

let all_optima_cached ?(subspace = Enumerate.All) cache =
  all_optima_with_oracle ~subspace
    ~oracle:(Cost.Cache.card cache)
    (Database.schemes (Cost.Cache.database cache))

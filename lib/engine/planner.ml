open Mj_relation
open Mj_hypergraph
open Multijoin
module Catalog = Mj_optimizer.Catalog
module Estimate = Mj_optimizer.Estimate

type policy = Hash_all | Wcoj | Yannakakis

let policy_name = function
  | Hash_all -> "hash"
  | Wcoj -> "wcoj"
  | Yannakakis -> "yann"

(* "cost" parses as an alias of [Hash_all], so that requests and
   MJ_ALGO_POLICY settings that name it keep working. *)
let policy_of_string s =
  match String.lowercase_ascii (String.trim s) with
  | "hash" | "cost" -> Some Hash_all
  | "wcoj" -> Some Wcoj
  | "yann" -> Some Yannakakis
  | _ -> None

(* Where the generic join earns its keep: a database scheme whose
   hypergraph is cyclic.  On α-acyclic schemes a semijoin-reduced binary
   plan is already worst-case optimal (Yannakakis), so the node would
   only replace one optimal evaluation with another. *)
let is_cyclic schemes =
  Scheme.Set.cardinal schemes >= 3 && not (Gyo.is_alpha_acyclic schemes)

(* The elimination order of a generic join, fixed at plan time: most
   shared attributes first (each level then intersects the most
   relations, shrinking the search space earliest), ties by attribute
   name.  A pure function of the scheme set, so plans — and therefore
   executions, spans and τ — are reproducible across runs, planes and
   domain counts. *)
let elimination_order schemes =
  let count a =
    Scheme.Set.fold
      (fun s acc -> if Attr.Set.mem a s then acc + 1 else acc)
      schemes 0
  in
  let attrs = Attr.Set.elements (Scheme.Set.universe schemes) in
  List.stable_sort
    (fun a b ->
      match compare (count b) (count a) with
      | 0 -> Attr.compare a b
      | c -> c)
    attrs

(* The cost-based side of the acyclic arm: among candidate join trees
   and roots, pick the rooted orientation whose join phase — a
   left-deep fold over [Jointree.join_order] — is cheapest under the
   catalog estimates.  Semijoins are not priced: they generate no
   tuples under the paper's measure, and after a full reduction the
   join phase is what τ charges.  Candidates are enumerated in a fixed
   deterministic order (trees as generated, roots sorted) and the first
   strict minimum wins, so lowering stays a pure function of the
   (database, strategy) pair. *)
let best_rooted_tree ~oracle schemes trees =
  let price rt =
    match Jointree.join_order rt with
    | [] | [ _ ] -> 0
    | first :: rest ->
        let _, cost =
          List.fold_left
            (fun (acc, c) s ->
              let acc = Scheme.Set.add s acc in
              (acc, c + max 1 (oracle acc)))
            (Scheme.Set.singleton first, 0)
            rest
        in
        cost
  in
  let candidates =
    List.concat_map
      (fun t ->
        List.map (fun r -> Jointree.root_at t r) (Scheme.Set.elements schemes))
      trees
  in
  match candidates with
  | [] -> invalid_arg "Planner: no join tree candidates"
  | rt0 :: rest ->
      fst
        (List.fold_left
           (fun (best, bc) rt ->
             let c = price rt in
             if c < bc then (rt, c) else (best, bc))
           (rt0, price rt0) rest)

(* The cost-best rooted join tree of an α-acyclic scheme set, or [None]
   when the set is cyclic (or empty).  Exhaustive tree search where it
   is affordable, GYO's ear tree (always a join tree) beyond. *)
let yann_tree ?oracle db schemes =
  if Scheme.Set.is_empty schemes then None
  else
    match Gyo.ear_decomposition schemes with
    | None -> None
    | Some edges ->
        let catalog = Catalog.of_database db in
        let oracle =
          match oracle with
          | Some o -> o
          | None -> Estimate.of_catalog catalog
        in
        (* The oversize failpoint feeds the tree search estimates that
           are wrong by three orders of magnitude: they may change which
           root/orientation wins — never the result or
           τ-is-the-join-phase. *)
        let oracle d =
          let v = oracle d in
          if Mj_failpoint.Failpoint.fire Estimate_oversize then
            if v > max_int / 1000 then max_int else v * 1000
          else v
        in
        let trees =
          if Scheme.Set.cardinal schemes <= 6 then Jointree.all_join_trees schemes
          else [ edges ]
        in
        Some (best_rooted_tree ~oracle schemes trees)

let generic_join schemes =
  Physical.Generic_join (Scheme.Set.elements schemes, elimination_order schemes)

let lower ?(policy = Hash_all) ?oracle db strategy =
  let schemes = Strategy.schemes strategy in
  match policy with
  | Hash_all -> Physical.of_strategy strategy
  | Yannakakis -> (
      (* The asymptotically right algorithm for the α-acyclic regime:
         Yannakakis's semijoin program is instance-optimal there (total
         work O(input + output)), so every acyclic query lowers to a
         [Semijoin_program] over a cost-picked rooted join tree.  A
         query the ear decomposition leaves a core of is cyclic, and
         lowers to the wcoj arm's generic join without a second
         decomposition — between them, every query routes to the
         algorithm whose worst case matches its structure.
         Single-relation strategies keep their trivial binary
         lowering. *)
      if Scheme.Set.cardinal schemes < 2 then Physical.of_strategy strategy
      else
        match yann_tree ?oracle db schemes with
        | Some rt -> Physical.Semijoin_program rt
        | None -> generic_join schemes)
  | Wcoj ->
      (* Priced by the AGM bound, by dominance rather than per-plan
         arithmetic: the generic join's worst case over the whole
         sub-database is AGM(D), while any binary plan's worst case is
         AGM(D) for its final step {e plus} a strictly positive AGM term
         per internal step — on a cyclic scheme the internal terms are
         polynomially large (triangle: N^{3/2} vs N^2), so Generic_join
         wins unconditionally wherever it applies.  Catalog estimates
         cannot see the skew that inflates binary intermediates (the
         uniform formula underestimates zipfian blow-ups by orders of
         magnitude), so estimate-level pricing would mispick exactly on
         the workloads the node exists for; the bound itself is still
         surfaced — [Cost.Cache.agm], [mjoin explain] — as the
         certificate of why.  Acyclic strategies keep their binary
         plan: there binary plans are already optimal. *)
      if is_cyclic schemes then generic_join schemes
      else Physical.of_strategy strategy

(* Ranked (top-k) lowering — the [mjoin topk] surface.  Only defined on
   α-acyclic queries (the ranked enumerator streams out of a reduced
   join tree); [None] tells the caller the query is cyclic and must be
   answered by a full evaluation instead. *)
let lower_ranked ?oracle db strategy ~k =
  let schemes = Strategy.schemes strategy in
  Option.map
    (fun rt -> Physical.Ranked_enumerate (rt, k))
    (yann_tree ?oracle db schemes)

(* Laws for the bitmask subset kernel.

   Every property pits a kernel-backed implementation against a
   definition or a reference that does not use it: the paper's
   connectivity vocabulary over attribute universes, inline mask
   enumerations in the order the DP's tie rule makes observable, and
   brute-force enumeration priced by [Cost.tau_oracle] for DP optima;
   on chain / star / cycle / clique / random query graphs.  Plus the
   pool's determinism rule (identical output at any domain count). *)

open Mj_relation
open Mj_hypergraph
open Multijoin
open Mj_optimizer
module Pool = Mj_pool.Pool
module Dbgen = Mj_workload.Dbgen

let qtest name ?(count = 100) gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~name ~count gen prop)

(* ------------------------------------------------------------------ *)
(* Generators                                                           *)
(* ------------------------------------------------------------------ *)

let shape kind n seed =
  match kind with
  | 0 -> Querygraph.chain n
  | 1 -> Querygraph.star n
  | 2 -> Querygraph.cycle (max 3 n)
  | 3 -> Querygraph.clique (min n 8)
  | _ ->
      let rng = Random.State.make [| seed; n |] in
      Querygraph.random ~extra_edge_prob:0.25 ~rng n

(* A universe of up to [max_n] relations plus a nonempty submask; the
   submask sub-hypergraphs exercise the unconnected cases. *)
let gen_universe_mask max_n =
  let open QCheck2.Gen in
  let* kind = int_range 0 4 in
  let* n = int_range 2 max_n in
  let* seed = int_range 0 100_000 in
  let d = shape kind n seed in
  let u = Bitdb.make d in
  let* m = int_range 1 (Bitdb.full u) in
  return (d, m)

let gen_universe max_n =
  QCheck2.Gen.map fst (gen_universe_mask max_n)

let gen_random_db =
  let open QCheck2.Gen in
  let* n = int_range 2 5 in
  let* seed = int_range 0 100_000 in
  let rng = Random.State.make [| seed; n |] in
  let d = Querygraph.random ~extra_edge_prob:0.3 ~rng n in
  return (Dbgen.uniform_db ~rng ~rows:4 ~domain:3 d)

(* Synthetic per-relation statistics. *)
let oracle_for d =
  Estimate.of_catalog
    (Catalog.synthetic
       (List.mapi
          (fun i s -> (s, 32 + (17 * i mod 41), []))
          (Scheme.Set.elements d)))

(* ------------------------------------------------------------------ *)
(* Connectivity vocabulary: kernel vs the paper's definitions            *)
(* ------------------------------------------------------------------ *)

let universe u m = Scheme.Set.universe (Bitdb.set_of_mask u m)

let linked u m1 m2 = not (Attr.Set.disjoint (universe u m1) (universe u m2))

(* Connected: no split into two nonempty parts with disjoint universes. *)
let connected u m =
  let ok = ref true in
  Bitdb.iter_subsets m (fun s -> if not (linked u s (m lxor s)) then ok := false);
  !ok

let prop_connected =
  qtest "Bitdb.is_connected agrees with the definition on submasks"
    ~count:150 (gen_universe_mask 12) (fun (d, m) ->
      let u = Bitdb.make d in
      Bitdb.is_connected u m = connected u m)

let prop_components =
  qtest "Bitdb.components agrees with the definition, in order" ~count:150
    (gen_universe_mask 12) (fun (d, m) ->
      let u = Bitdb.make d in
      let cs = Bitdb.components u m in
      let rec pairwise = function
        | [] -> true
        | c :: rest ->
            List.for_all (fun c' -> not (linked u c c')) rest && pairwise rest
      in
      List.for_all (fun c -> c <> 0 && connected u c) cs
      && pairwise cs
      && List.fold_left ( lor ) 0 cs = m
      && List.fold_left ( + ) 0 (List.map Bitdb.popcount cs) = Bitdb.popcount m
      && List.sort compare (List.map Bitdb.lowest_bit cs)
         = List.map Bitdb.lowest_bit cs)

let prop_linked =
  qtest "Bitdb.linked agrees with attribute-universe intersection"
    ~count:150
    QCheck2.Gen.(
      let* d, m1 = gen_universe_mask 12 in
      let u = Bitdb.make d in
      let* m2 = int_range 1 (Bitdb.full u) in
      return (d, m1, m2))
    (fun (d, m1, m2) ->
      let u = Bitdb.make d in
      Bitdb.linked u m1 m2 = linked u m1 m2)

(* The DP keeps the first of several equal-cost splits, so these
   enumeration orders are observable in its winners. *)
let prop_connected_subsets =
  qtest "Bitdb.connected_subsets = ascending connected submasks" ~count:40
    (gen_universe 10) (fun d ->
      let u = Bitdb.make d in
      let reference =
        List.filter (Bitdb.is_connected u) (List.init (Bitdb.full u) succ)
      in
      Bitdb.connected_subsets u (Bitdb.full u) = reference)

let prop_binary_partitions =
  qtest "Bitdb.binary_partitions = lowest relation on the left, ascending"
    ~count:40 (gen_universe 10) (fun d ->
      let u = Bitdb.make d in
      let full = Bitdb.full u in
      (* Left halves [1 lor (sub lsl 1)] for sub = 0 .. 2^(k-1) - 2. *)
      let reference =
        List.init ((1 lsl (Bitdb.size u - 1)) - 1) (fun sub ->
            let left = 1 lor (sub lsl 1) in
            (left, full lxor left))
      in
      Bitdb.binary_partitions u full = reference)

(* ------------------------------------------------------------------ *)
(* DP optima: kernel vs brute-force enumeration                         *)
(* ------------------------------------------------------------------ *)

let subspaces =
  [ Enumerate.All; Enumerate.Linear; Enumerate.Cp_free;
    Enumerate.Linear_cp_free ]

let cost_of = function None -> -1 | Some r -> r.Optimal.cost

(* The cheapest τ over the enumerated subspace, [-1] when it is empty. *)
let enumerated_optimum subspace ~oracle d =
  let best =
    Enumerate.fold_strategies subspace d ~init:max_int ~f:(fun best s ->
        min best (Cost.tau_oracle oracle s))
  in
  if best = max_int then -1 else best

let prop_dp_synthetic =
  qtest "optimum costs match the smallest enumerated τ on every subspace \
         (synthetic τ)"
    ~count:60 (gen_universe 6) (fun d ->
      let oracle = oracle_for d in
      List.for_all
        (fun subspace ->
          enumerated_optimum subspace ~oracle d
          = cost_of (Optimal.optimum_with_oracle ~subspace ~oracle d))
        subspaces)

let prop_dp_real =
  qtest "optimum costs match the smallest enumerated τ on every subspace \
         (real db)"
    ~count:40 gen_random_db (fun db ->
      let oracle = Cost.cardinality_oracle db in
      List.for_all
        (fun subspace ->
          enumerated_optimum subspace ~oracle (Database.schemes db)
          = cost_of (Optimal.optimum ~subspace db))
        subspaces)

let prop_all_optima =
  qtest "all_optima streams exactly the enumeration-order ties" ~count:40
    gen_random_db (fun db ->
      let d = Database.schemes db in
      let oracle = Cost.cardinality_oracle db in
      List.for_all
        (fun subspace ->
          let reference =
            let costed =
              List.map
                (fun s -> (Cost.tau_oracle oracle s, s))
                (Enumerate.enumerate subspace d)
            in
            match costed with
            | [] -> []
            | _ ->
                let best =
                  List.fold_left (fun acc (c, _) -> min acc c) max_int costed
                in
                List.filter_map
                  (fun (c, s) -> if c = best then Some s else None)
                  costed
          in
          let streamed =
            List.map
              (fun r -> r.Optimal.strategy)
              (Optimal.all_optima ~subspace db)
          in
          List.length reference = List.length streamed
          && List.for_all2
               (fun s1 s2 -> Strategy.to_string s1 = Strategy.to_string s2)
               reference streamed)
        subspaces)

(* ------------------------------------------------------------------ *)
(* Condition checkers: cached mask loops vs the paper's definitions     *)
(* ------------------------------------------------------------------ *)

(* C1–C4 re-derived from the definitions alone: connected and linked
   over attribute universes, τ from the materialized join of each
   sub-database (no Cost cache, no Bitdb.connected_subsets). *)
let definitional_summary db =
  let u = Bitdb.make (Database.schemes db) in
  let conn =
    List.filter (connected u) (List.init (Bitdb.full u) succ)
  in
  let cards = Hashtbl.create 64 in
  let tau m =
    match Hashtbl.find_opt cards m with
    | Some c -> c
    | None ->
        let c =
          Relation.cardinality
            (Database.join_all (Database.restrict db (Bitdb.set_of_mask u m)))
        in
        Hashtbl.add cards m c;
        c
  in
  let c1 = ref true and c1_strict = ref true in
  List.iter
    (fun e ->
      List.iter
        (fun e1 ->
          if e land e1 = 0 && linked u e e1 then
            List.iter
              (fun e2 ->
                if e land e2 = 0 && e1 land e2 = 0 && not (linked u e e2)
                then begin
                  let t1 = tau (e lor e1) and t2 = tau (e lor e2) in
                  if t1 > t2 then c1 := false;
                  if t1 >= t2 then c1_strict := false
                end)
              conn)
        conn)
    conn;
  let c2 = ref true and c3 = ref true and c4 = ref true in
  List.iter
    (fun p1 ->
      List.iter
        (fun p2 ->
          if p1 land p2 = 0 && linked u p1 p2 then begin
            let j = tau (p1 lor p2) and t1 = tau p1 and t2 = tau p2 in
            if j > t1 && j > t2 then c2 := false;
            if j > t1 || j > t2 then c3 := false;
            if j < t1 || j < t2 then c4 := false
          end)
        conn)
    conn;
  {
    Conditions.c1 = !c1;
    c1_strict = !c1_strict;
    c2 = !c2;
    c3 = !c3;
    c4 = !c4;
  }

(* Up to 7 relations over random graphs, and unconnected schemes: a
   random graph or a chain with one relation cut out.  Superkey,
   uniform and skewed data, and in one database of four a zero-row
   relation. *)
let gen_conditions_db =
  let open QCheck2.Gen in
  let* n = int_range 2 7 in
  let* kind = int_range 0 2 in
  let* regime = int_range 0 2 in
  let* empty = int_range 0 3 in
  let* seed = int_range 0 100_000 in
  let rng = Random.State.make [| seed; n; 7 |] in
  let cut d =
    Scheme.Set.remove
      (List.nth (Scheme.Set.elements d)
         (Random.State.int rng (Scheme.Set.cardinal d)))
      d
  in
  let d =
    match kind with
    | 0 -> Querygraph.random ~extra_edge_prob:0.3 ~rng n
    | 1 -> cut (Querygraph.random ~extra_edge_prob:0.1 ~rng (n + 1))
    | _ -> cut (Querygraph.chain (n + 1))
  in
  let rows = 2 + Random.State.int rng 3 in
  let db =
    match regime with
    | 0 -> Dbgen.superkey_db ~rng ~rows ~domain:(rows + 4) d
    | 1 -> Dbgen.uniform_db ~rng ~rows ~domain:3 d
    | _ -> Dbgen.skewed_db ~rng ~rows ~domain:4 ~skew:1.2 d
  in
  return
    (if empty = 0 then
       Database.replace db (Relation.empty (Scheme.Set.min_elt d))
     else db)

let prop_summarize =
  qtest "Conditions.summarize agrees with the definitions over universes"
    ~count:60 gen_conditions_db (fun db ->
      definitional_summary db = Conditions.summarize db)

(* The decision's C1 bound [card E · g X] saturates at [max_int], as
   the cache's product rule does.  Chain AB–BC–CD–DE with E = AB,
   E1 = BC: X = {CD, DE}, and every count is 2^40, so the bound
   saturates while τ(E ∪ E1) = max_int meets it: C1 holds, C1' does
   not (and every join outgrows its sides: C4 alone of the pair
   conditions holds).  A wrapping product would read 2^80 mod 2^63 = 0
   and refute C1. *)
let test_summarize_saturates () =
  let u = Bitdb.make (Querygraph.chain 4) in
  let card m = if m land (m - 1) = 0 then 1 lsl 40 else max_int in
  let s = Conditions.decide u card in
  Alcotest.(check (list bool))
    "saturated (c1, c1', c2, c3, c4)"
    [ true; false; false; false; true ]
    [ s.Conditions.c1; s.Conditions.c1_strict; s.Conditions.c2;
      s.Conditions.c3; s.Conditions.c4 ]

(* The decision's dense arrays share the subset DP's relation cap. *)
let test_summarize_cap () =
  let rng = Random.State.make [| 23 |] in
  let db = Dbgen.uniform_db ~rng ~rows:1 ~domain:2 (Querygraph.chain 23) in
  Alcotest.check_raises "k = 23"
    (Invalid_argument "subset DP: too many relations (max 22)") (fun () ->
      ignore (Conditions.summarize db))

(* ------------------------------------------------------------------ *)
(* Relation satellite: empty-common natural join                        *)
(* ------------------------------------------------------------------ *)

let gen_disjoint_relations =
  let open QCheck2.Gen in
  let* seed = int_range 0 100_000 in
  let* k1 = int_range 0 5 in
  let* k2 = int_range 0 5 in
  let rng = Random.State.make [| seed; k1; k2 |] in
  let row width = List.init width (fun _ -> Value.int (Random.State.int rng 3)) in
  let rows k width = List.init k (fun _ -> row width) in
  return
    ( Relation.of_rows "AB" (rows k1 2),
      Relation.of_rows "CD" (rows k2 2) )

let prop_join_disjoint =
  qtest "natural_join with no common attributes is the Cartesian product"
    ~count:100 gen_disjoint_relations (fun (r1, r2) ->
      let joined = Relation.natural_join r1 r2 in
      let reference =
        Relation.make
          (Attr.Set.union (Relation.scheme r1) (Relation.scheme r2))
          (Relation.fold
             (fun t1 acc ->
               Relation.fold (fun t2 acc -> Tuple.merge t1 t2 :: acc) r2 acc)
             r1 [])
      in
      Relation.equal joined reference
      && Relation.cardinality joined
         = Relation.cardinality r1 * Relation.cardinality r2)

(* ------------------------------------------------------------------ *)
(* Pool determinism                                                     *)
(* ------------------------------------------------------------------ *)

let prop_pool_deterministic =
  qtest "Pool.init is identical at 1 and 4 domains" ~count:20
    QCheck2.Gen.(int_range 0 100_000)
    (fun seed ->
      let task i =
        let rng = Random.State.make [| seed; i |] in
        List.init 8 (fun _ -> Random.State.int rng 1_000_000)
      in
      (* [Pool.trials] too: seeds from 1, each salted state its own. *)
      let trial seed' rng = (seed', Random.State.int rng 1_000_000) in
      Pool.init ~domains:1 16 task = Pool.init ~domains:4 16 task
      && Pool.trials ~domains:4 16 ~salt:[| seed |] trial
         = Array.init 16 (fun i ->
               trial (i + 1) (Random.State.make [| i + 1; seed |])))

(* The pool keeps its helper domains between runs: thousands of runs,
   runs nested inside tasks (which must take other helpers, not wait
   for their own) and a raising task all leave it answering correctly. *)
let test_pool_helpers_reused () =
  let squares n = Array.init n (fun i -> i * i) in
  for _ = 1 to 2000 do
    Alcotest.(check (array int)) "flat run" (squares 8)
      (Pool.init ~domains:2 8 (fun i -> i * i))
  done;
  let nested =
    Pool.init ~domains:2 6 (fun i ->
        Array.fold_left ( + ) 0 (Pool.init ~domains:2 4 (fun j -> (i * 4) + j)))
  in
  Alcotest.(check (array int)) "nested runs"
    (Array.init 6 (fun i -> (16 * i) + 6))
    nested;
  (match Pool.init ~domains:2 8 (fun i -> if i = 5 then failwith "task 5" else i) with
  | exception Failure msg -> Alcotest.(check string) "task exception" "task 5" msg
  | _ -> Alcotest.fail "a raising task must raise");
  Alcotest.(check (array int)) "after a raise" (squares 8)
    (Pool.init ~domains:2 8 (fun i -> i * i))

(* A run gets the requested domains, at least one, capped at the core
   count; a run of that many tasks on more requested domains than cores
   is counted as a clamp. *)
let test_pool_workers () =
  let cores = Domain.recommended_domain_count () in
  Alcotest.(check int) "at least one" 1 (Pool.workers 0);
  Alcotest.(check int) "one" 1 (Pool.workers 1);
  Alcotest.(check int) "within the cores" (min 2 cores) (Pool.workers 2);
  Alcotest.(check int) "capped at the cores" cores (Pool.workers (cores + 3));
  let before = Pool.clamp_events () in
  ignore (Pool.init ~domains:(cores + 1) (cores + 1) Fun.id);
  Alcotest.(check int) "clamp counted" (before + 1) (Pool.clamp_events ())

(* ------------------------------------------------------------------ *)
(* Pinned seed: one fixed database with hard-coded expectations, so a
   coordinated drift of the kernel and the references (both wrong the
   same way) still trips the suite.                                     *)
(* ------------------------------------------------------------------ *)

let test_pinned_seed () =
  let rng = Random.State.make [| 2026; 91 |] in
  let d = Querygraph.cycle 4 in
  let db = Mj_workload.Dbgen.uniform_db ~rng ~rows:5 ~domain:3 d in
  List.iter
    (fun subspace ->
      Alcotest.(check int) "pinned optimum" 6
        (cost_of (Optimal.optimum ~subspace db)))
    subspaces;
  (match Optimal.optimum db with
  | None -> Alcotest.fail "pinned database has no optimum"
  | Some r ->
      Alcotest.(check string)
        "pinned optimum strategy" "(((c0,c1 * c1,c2) * c2,c3) * c0,c3)"
        (Strategy.to_string r.Optimal.strategy);
      Alcotest.(check int) "materialized τ" 6 (Cost.tau db r.Optimal.strategy));
  let s = Conditions.summarize db in
  Alcotest.(check (list bool))
    "pinned summary (c1, c1', c2, c3, c4)"
    [ true; true; false; false; false ]
    [ s.Conditions.c1; s.Conditions.c1_strict; s.Conditions.c2;
      s.Conditions.c3; s.Conditions.c4 ];
  Alcotest.(check int) "pinned |R_D|" 1
    (Relation.cardinality (Database.join_all db))

let () =
  Alcotest.run "kernel"
    [
      ( "bitmask-vs-set",
        [
          prop_connected;
          prop_components;
          prop_linked;
          prop_connected_subsets;
          prop_binary_partitions;
        ] );
      ( "dp-equivalence",
        [
          prop_dp_synthetic;
          prop_dp_real;
          prop_all_optima;
          Alcotest.test_case "pinned seed" `Quick test_pinned_seed;
        ] );
      ( "conditions-equivalence",
        [
          prop_summarize;
          Alcotest.test_case "saturated C1 bound" `Quick
            test_summarize_saturates;
          Alcotest.test_case "relation cap" `Quick test_summarize_cap;
        ] );
      ("relation-satellites", [ prop_join_disjoint ]);
      ( "pool-determinism",
        [
          prop_pool_deterministic;
          Alcotest.test_case "helper domains reused" `Quick
            test_pool_helpers_reused;
          Alcotest.test_case "effective worker count" `Quick test_pool_workers;
        ] );
    ]

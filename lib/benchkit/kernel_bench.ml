open Mj_relation
open Mj_hypergraph
open Multijoin
open Mj_optimizer
module Dbgen = Mj_workload.Dbgen
module Pool = Mj_pool.Pool
module Obs = Mj_obs.Obs
module Json = Mj_obs.Json

(* Deterministic synthetic statistics: the oracle is pure arithmetic, so
   the timing isolates the subset machinery (Set/string legacy path vs
   mask kernel) rather than join evaluation. *)
let oracle_for d =
  let cat =
    Catalog.synthetic
      (List.mapi
         (fun i s -> (s, 32 + (17 * i mod 41), []))
         (Scheme.Set.elements d))
  in
  Estimate.of_catalog cat

(* The kernel-path twin of [Legacy.conditions_checksum]: same
   configuration spaces and τ folds, driven by the bitmask kernel. *)
let kernel_conditions_checksum d ~oracle =
  let u = Bitdb.make d in
  let conn = Bitdb.connected_subsets u (Bitdb.full u) in
  let acc = ref 0 and count = ref 0 in
  List.iter
    (fun e ->
      List.iter
        (fun e1 ->
          if e land e1 = 0 && Bitdb.linked u e e1 then
            List.iter
              (fun e2 ->
                if
                  e land e2 = 0
                  && e1 land e2 = 0
                  && not (Bitdb.linked u e e2)
                then begin
                  let t1 = oracle (Bitdb.set_of_mask u (e lor e1)) in
                  let t2 = oracle (Bitdb.set_of_mask u (e lor e2)) in
                  acc := !acc + (3 * t1) + t2;
                  incr count
                end)
              conn)
        conn)
    conn;
  List.iter
    (fun e1 ->
      List.iter
        (fun e2 ->
          if e1 land e2 = 0 && Bitdb.linked u e1 e2 then begin
            let tj = oracle (Bitdb.set_of_mask u (e1 lor e2)) in
            let t1 = oracle (Bitdb.set_of_mask u e1) in
            let t2 = oracle (Bitdb.set_of_mask u e2) in
            acc := !acc + (5 * tj) + (2 * t1) + t2;
            incr count
          end)
        conn)
    conn;
  (!count, !acc)

let shape_of = function
  | "chain" -> Querygraph.chain
  | "cycle" -> Querygraph.cycle
  | "star" -> Querygraph.star
  | s -> invalid_arg ("Kernel_bench: unknown shape " ^ s)

(* One head-to-head row: both paths under [best_of], equal values
   certified. *)
let head_to_head experiment (shape, n, reps) ~legacy ~kernel ~value =
  let legacy_ms, legacy_r = Bench_core.best_of ~reps legacy in
  let kernel_ms, kernel_r = Bench_core.best_of ~reps kernel in
  Bench_core.(
    row
      [
        ("experiment", Key (Json.str experiment));
        ("shape", Key (Json.str shape));
        ("n", Key (Json.int n));
        ("reps", Info (Json.int reps));
        ("legacy_ms", Ms legacy_ms);
        ("kernel_ms", Ms kernel_ms);
        speedup legacy_ms kernel_ms;
        ("legacy_value", Out (Json.int (value legacy_r)));
        ("kernel_value", Out (Json.int (value kernel_r)));
        ("equal", Check (legacy_r = kernel_r));
      ])

let dp_row ((shape, n, _) as spec) =
  let d = shape_of shape n in
  let oracle = oracle_for d in
  head_to_head "dp-bushy" spec
    ~legacy:(fun () ->
      (Option.get
         (Legacy.optimum_with_oracle ~subspace:Enumerate.All ~oracle d))
        .Optimal.cost)
    ~kernel:(fun () ->
      (Option.get
         (Optimal.optimum_with_oracle ~subspace:Enumerate.All ~oracle d))
        .Optimal.cost)
    ~value:Fun.id

let conditions_row ((shape, n, _) as spec) =
  let d = shape_of shape n in
  let oracle = oracle_for d in
  head_to_head "conditions" spec
    ~legacy:(fun () -> Legacy.conditions_checksum d ~oracle)
    ~kernel:(fun () -> kernel_conditions_checksum d ~oracle)
    ~value:snd

let cache_stats () =
  let rng = Random.State.make [| 1; 1990 |] in
  let db = Dbgen.uniform_db ~rng ~rows:5 ~domain:3 (Querygraph.chain 5) in
  let obs = Obs.make () in
  let (_ : Theorems.report) = Theorems.verify ~obs db in
  let get name =
    match List.assoc_opt name (Obs.counters obs) with Some v -> v | None -> 0
  in
  (get "cost.cache_hits", get "cost.cache_misses")

let run ?domains ?(quick = false) () =
  let domains =
    match domains with Some d -> max 1 d | None -> Pool.default_domains ()
  in
  let dp_specs =
    if quick then [ ("chain", 8, 5); ("chain", 9, 5) ]
    else
      [
        ("chain", 8, 20); ("chain", 10, 5); ("chain", 12, 1); ("chain", 14, 1);
        ("cycle", 8, 20); ("cycle", 10, 5); ("cycle", 12, 1);
      ]
  in
  let cond_specs =
    if quick then [ ("chain", 8, 2) ]
    else [ ("chain", 8, 10); ("chain", 10, 2); ("chain", 12, 1) ]
  in
  (* One task per row; results merge in task order, so the report is
     identical at any domain count (wall times aside). *)
  let tasks =
    Array.of_list
      (List.map (fun spec () -> dp_row spec) dp_specs
      @ List.map (fun spec () -> conditions_row spec) cond_specs)
  in
  let rows = Array.to_list (Pool.run ~domains tasks) in
  let cache_hits, cache_misses = cache_stats () in
  Bench_core.
    {
      name = "KERNEL";
      meta =
        [
          ("domains", Info (Json.int domains));
          ( "tau_cache",
            Out
              (Json.Obj
                 [
                   ("hits", Json.int cache_hits);
                   ("misses", Json.int cache_misses);
                 ]) );
        ];
      rows;
    }

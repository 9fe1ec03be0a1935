open Mj_relation
open Mj_hypergraph
open Multijoin
module Dbgen = Mj_workload.Dbgen
module Planner = Mj_engine.Planner
module Json = Mj_obs.Json

let shape_of = function
  | "triangle" -> Querygraph.cycle 3
  | "clique4" -> Querygraph.clique 4
  | s -> invalid_arg ("Wcoj_bench: unknown shape " ^ s)

(* The blow-up population: zipf-skewed columns.  Binary plans pay the
   skew quadratically in their intermediates (hot values meet hot
   values), the generic join only in the output — exactly the
   worst-case gap the AGM bound prices. *)
let skewed_db shape n domain skew =
  let rng = Random.State.make [| n; domain; 1990; Hashtbl.hash shape |] in
  Dbgen.skewed_db ~rng ~rows:n ~domain ~skew (shape_of shape)

(* The best binary contender: the same left-to-right columnar fold the
   engine's binary plans run, on a pre-encoded database so the row
   measures the join kernels rather than dictionary encoding.  On these
   symmetric cyclic shapes every binary order materializes an
   isomorphic intermediate, so the fold is also the best binary order
   up to symmetry. *)
let binary_join fdb d = Frame.Db.join_schemes ~domains:1 fdb d

let binary_tau fdb d =
  match Scheme.Set.elements d with
  | [] -> 0
  | s :: rest ->
      let _, tau =
        List.fold_left
          (fun (acc, tau) s' ->
            let j = Frame.natural_join ~domains:1 acc (Frame.Db.find fdb s') in
            (j, tau + Frame.cardinality j))
          (Frame.Db.find fdb s, 0)
          rest
      in
      tau

let bench_row ?floor ~reps (shape, n, domain, skew) =
  let db = skewed_db shape n domain skew in
  let fdb = Frame.Db.of_database db in
  let d = Database.schemes db in
  let order = Planner.elimination_order d in
  let (binary_ms, binary_f), (wcoj_ms, wcoj_f) =
    Bench_core.race ~reps
      (fun () -> binary_join fdb d)
      (fun () -> Frame.Db.generic_join fdb ~order d)
  in
  let rows_out = Frame.cardinality wcoj_f in
  Bench_core.(
    row ?floor
      ([
         ("experiment", Key (Json.str "wcoj"));
         ("shape", Key (Json.str shape));
         ("n", Key (Json.int n));
         ("domain", Key (Json.int domain));
         ("skew", Key (Json.float skew));
         ("reps", Info (Json.int reps));
         ("binary_ms", Ms binary_ms);
         ("wcoj_ms", Ms wcoj_ms);
         speedup binary_ms wcoj_ms;
         ("rows_out", Out (Json.int rows_out));
         ("tau_binary", Out (Json.int (binary_tau fdb d)));
         (* The generic join has no intermediates: its single τ entry
            is the output, certified by [equal] below. *)
         ("tau_wcoj", Out (Json.int rows_out));
       ]
      @ (match Cost.Cache.agm (Cost.Cache.create db) d with
        | Some b -> [ ("agm_bound", Out (Json.float b)) ]
        | None -> [])
      @ [ ("equal", Check (Frame.equal wcoj_f binary_f)) ]))

let run ?(quick = false) () =
  let rows =
    if quick then
      [
        bench_row ~floor:1.0 ~reps:3 ("triangle", 10_000, 1_000, 0.5);
        bench_row ~reps:3 ("clique4", 3_000, 500, 0.5);
      ]
    else
      [
        bench_row ~floor:5.0 ~reps:3 ("triangle", 100_000, 10_000, 0.5);
        bench_row ~floor:1.0 ~reps:3 ("triangle", 10_000, 1_000, 0.5);
        bench_row ~reps:3 ("clique4", 10_000, 2_000, 0.5);
      ]
  in
  { Bench_core.name = "WCOJ"; meta = []; rows }

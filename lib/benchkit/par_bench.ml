open Mj_relation
open Mj_hypergraph
module Dbgen = Mj_workload.Dbgen
module Pool = Mj_pool.Pool
module Json = Mj_obs.Json

let shape_of = function
  | "chain" -> Querygraph.chain
  | "cycle" -> Querygraph.cycle
  | "star" -> Querygraph.star
  | s -> invalid_arg ("Par_bench: unknown shape " ^ s)

let micro_db shape n =
  let rng = Random.State.make [| n; 1990; Hashtbl.hash shape |] in
  Dbgen.uniform_db ~rng ~rows:n ~domain:(max 2 n) (shape_of shape 3)

(* One (shape, n) workload swept over the domain counts.  The
   reference result is a 1-domain join on its own encoding; every cell
   certifies a bit-identical frame against it, so one grid both
   measures scaling and proves the morsel scheduler deterministic
   across worker counts. *)
let sweep ~cores ~domain_counts ~reps (shape, n) =
  let db = micro_db shape n in
  let reference =
    Frame.Db.join_all ~domains:1 (Frame.Db.of_database db)
  in
  let fdb = Frame.Db.of_database db in
  let base_ms, base_f =
    Bench_core.best_of ~reps (fun () -> Frame.Db.join_all ~domains:1 fdb)
  in
  List.map
    (fun domains ->
      let par_ms, par_f =
        if domains = 1 then (base_ms, base_f)
        else
          Bench_core.best_of ~reps (fun () ->
              Frame.Db.join_all ~domains ~par_threshold:1 fdb)
      in
      (* More domains than cores: the pool clamps the worker count, so
         this cell's timings measure oversubscription noise, not
         scaling.  The speedup check and bench-diff skip its timings;
         bit-identity is still enforced. *)
      let clamped = domains > cores in
      let positive = clamped || (par_ms > 0.0 && base_ms > 0.0) in
      Bench_core.(
        row ~clamped
          ~checks:[ ("speedup > 0 unless clamped", positive) ]
          [
            ("experiment", Key (Json.str "join-scaling"));
            ("domains", Key (Json.int domains));
            ("shape", Key (Json.str shape));
            ("n", Key (Json.int n));
            ("reps", Info (Json.int reps));
            ("base_ms", Ms base_ms);
            ("par_ms", Ms par_ms);
            speedup base_ms par_ms;
            ("rows_out", Out (Json.int (Frame.cardinality par_f)));
            ("equal", Check (Frame.equal reference par_f));
          ]))
    domain_counts

let run ?(quick = false) () =
  let clamp0 = Pool.clamp_events () in
  let specs =
    if quick then [ ("chain", 2_000) ] else [ ("chain", 100_000); ("star", 100_000) ]
  in
  let reps = if quick then 3 else 5 in
  let cores = Domain.recommended_domain_count () in
  let rows =
    List.concat_map
      (sweep ~cores ~domain_counts:[ 1; 2; 4; 8 ] ~reps)
      specs
  in
  Bench_core.
    {
      name = "PAR";
      meta =
        [
          ("morsel", Info (Json.int Frame.default_morsel));
          ("clamp_events", Info (Json.int (Pool.clamp_events () - clamp0)));
        ];
      rows;
    }

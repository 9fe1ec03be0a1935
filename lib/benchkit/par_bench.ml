open Mj_relation
module Pool = Mj_pool.Pool
module Json = Mj_obs.Json

(* One (shape, n) workload swept over the domain counts.  The
   reference result is a 1-domain join on its own encoding; every cell
   certifies the same emitted rows against it, so one grid both
   measures scaling and proves the morsel scheduler deterministic
   across worker counts.  Each cell races its own 1-domain join
   ({!Bench_core.race}): the reps interleave, so host drift lands on
   both sides of its speedup, and the 1-domain cell, raced against
   itself, reads the harness's noise floor. *)
let sweep ~cores ~morsel ~domain_counts ~reps (shape, n) =
  let db = Frame_bench.micro_db shape n in
  let reference =
    Frame.Db.join_all ~domains:1 (Frame.Db.of_database db)
  in
  let fdb = Frame.Db.of_database db in
  let join domains () = Frame.Db.join_all ~domains ~morsel fdb in
  List.map
    (fun domains ->
      let (base_ms, _), (par_ms, par_f) =
        Bench_core.race ~reps (join 1) (join domains)
      in
      (* More domains than cores: the join runs with the pool's
         effective worker count, so this cell repeats the cores-domain
         cell and measures no scaling.  The speedup check and
         bench-diff skip its timings; bit-identity is still enforced. *)
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
            ("equal", Check (Frame.same_emission reference par_f));
          ]))
    domain_counts

let run ?(quick = false) () =
  let clamp0 = Pool.clamp_events () in
  let specs =
    if quick then [ ("chain", 2_000) ] else [ ("chain", 100_000); ("star", 100_000) ]
  in
  let reps = if quick then 3 else 5 in
  (* The quick leg's 2,000-row probe sides would fit in one default
     morsel and run inline; eight morsels put its multi-domain cells on
     the pool, the path they certify. *)
  let morsel = if quick then 2_000 / 8 else Frame.default_morsel in
  let cores = Domain.recommended_domain_count () in
  let rows =
    List.concat_map
      (sweep ~cores ~morsel ~domain_counts:[ 1; 2; 4; 8 ] ~reps)
      specs
  in
  Bench_core.
    {
      name = "PAR";
      meta =
        [
          ("morsel", Info (Json.int morsel));
          ("clamp_events", Info (Json.int (Pool.clamp_events () - clamp0)));
        ];
      rows;
    }

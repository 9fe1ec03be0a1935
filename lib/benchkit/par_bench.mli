(** The PAR benchmark: morsel-join scaling over worker domains.

    One workload per (shape, n) — a generated uniform database whose
    joins span several probe morsels (the quick leg shrinks the morsel
    to 250 rows for its 2,000-row chain), so they take the pool
    whenever it grants two workers — swept over requested domain
    counts (1/2/4/8).  Per cell:

    - [base_ms] — the 1-domain join (the scaling denominator);
    - [par_ms] — the join at the cell's domain count, raced against
      the cell's own 1-domain join ({!Bench_core.race}: interleaved
      reps, so host drift lands on both sides of the ratio; the
      1-domain cell races the 1-domain join against itself);
    - [speedup] — [base_ms /. par_ms], the parallel scaling;
    - [equal] — the same rows in the same emitted order as a 1-domain
      reference join ({!Mj_relation.Frame.same_emission}), so the grid
      certifies the determinism contract across worker counts.

    The report carries [cores] ([Domain.recommended_domain_count]) and
    [clamp_events] (the {!Mj_pool.Pool.clamp_events} delta across the
    run).  The join sizes its claim chunks and pool runs
    from {!Mj_pool.Pool.workers}, so a cell that requests more domains
    than there are cores runs exactly the cores-domain join and adds
    no clamp event; [cores] is how a reader tells such a cell from real
    scaling.  [morsel] records the probe-morsel size the run used. *)

val run : ?quick:bool -> unit -> Bench_core.leg
(** [quick] (default [false]) trims sizes to CI-smoke scale.  A cell
    with more domains than cores is [clamped]: it runs with the pool's
    effective worker count, so its timings repeat the cores-domain
    cell's and its speedup is not checked; its [equal] check still
    gates. *)

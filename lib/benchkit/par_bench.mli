(** The PAR benchmark: morsel-join scaling over worker domains.

    One workload per (shape, n) — a generated uniform database joined
    with the morsel scheduler forced on — swept over worker domain
    counts (1/2/4/8).  Per cell:

    - [base_ms] — the 1-domain join (the scaling denominator);
    - [par_ms] — the join at the cell's domain count;
    - [speedup] — [base_ms /. par_ms], the parallel scaling;
    - [equal] — bit-identical against a 1-domain reference join, so
      the grid certifies the determinism contract across worker
      counts.

    The report carries [cores] ([Domain.recommended_domain_count]) and
    [clamp_events] (the {!Mj_pool.Pool.clamp_events} delta across the
    run): on a small machine every multi-domain cell is silently capped
    at the core count, and these two fields are how a reader tells real
    scaling from a clamped run.  [morsel] records the probe-morsel size
    the run used. *)

val run : ?quick:bool -> unit -> Bench_core.leg
(** [quick] (default [false]) trims sizes to CI-smoke scale.  A cell
    with more domains than cores is [clamped]: the pool capped its
    worker count, so its timings measure oversubscription and its
    speedup is not checked; its [equal] check still gates. *)

(** The KERNEL benchmark: old path vs bitmask kernel, head to head.

    Each row times one workload twice — once through the preserved seed
    implementations ({!Legacy}) and once through the kernel-backed
    modules — against the same deterministic synthetic cardinality
    oracle, and certifies ([equal]) that both paths compute identical
    values (optimum costs, condition-space checksums).  Rows fan out
    over a {!Mj_pool.Pool}; results merge in row order, so the
    {!Bench_core.deterministic_json} projection is independent of the
    domain count.  Timings are GC-settled only at one domain: each
    row's heap settle stops every domain, pausing its siblings' reps.
    The document's [tau_cache] records the shared τ-oracle cache
    traffic of one [Theorems.verify] on a reference database. *)

val run : ?domains:int -> ?quick:bool -> unit -> Bench_core.leg
(** [quick] (default [false]) trims the size grid to CI-smoke scale.
    [domains] defaults to {!Mj_pool.Pool.default_domains}. *)

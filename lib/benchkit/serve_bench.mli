(** The SERVE benchmark: an in-process load generator against one
    {!Mj_serve.Serve} daemon.

    Mixed rows drive N concurrent client tasks (one pool domain each)
    through [Serve.handle_line] with a round-robin
    chain/star/snowflake/triangle mix across policies, all
    sharing the daemon's warm state — per-database registries, frame
    dictionaries and the LRU plan cache.  Each row
    reports throughput ([qps]), the p50/p95/p99 latency quantiles from
    the [Mj_obs] log-bucket histogram, the response tallies, the plan
    cache hit/miss counts, and [certified]: whether {e every} response
    matched a cold single-shot [Engine.run] oracle of the same request
    field by field (rows, τ, result hash, per-step τ log).

    The ["plan-cache"] row times a repeated-shape workload cold (a
    fresh daemon per shot — every warm structure misses) against warm
    (one daemon, primed once), the two sides alternated and reported
    as medians ({!Bench_core.race_median}) with their [speedup], which
    carries no floor.  It gates on the daemons' {!Mj_serve.Serve.counters}
    instead: [cold_counted] (each cold daemon shows one plan-cache miss,
    no hit and one registered database) and [warm_counted] (the warm
    daemon shows one miss, its prime, a hit for every later shot and one
    registered database).  A failed count, or any non-certified row,
    fails the leg.

    Rows with more clients than cores are marked [clamped] and skipped
    by the {!Bench_diff} regression gate, like PAR cells. *)

val run : ?quick:bool -> unit -> Bench_core.leg
(** [quick] (default [false]) trims request counts and database sizes
    to CI-smoke scale and drops the 2-client cell. *)

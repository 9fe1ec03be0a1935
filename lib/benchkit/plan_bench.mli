(** The PLAN benchmark: baseline vs cost-based lowering, head to head.

    The planner twin of {!Frame_bench}.  Each row takes one workload's
    (database, strategy) pair, lowers the {e same} strategy twice —
    under the baseline policy (default [Planner.Hash_all], the
    pre-planner behavior; the bench harness's [--policy] flag) and
    under [Planner.Cost_based] — and executes both plans on the seed
    data plane ({!Mj_engine.Exec}, the only plane where per-step
    algorithm annotations are load-bearing; the columnar plane treats
    them as advisory).  Certified per row:

    - the result relations are [Relation.equal], and
    - both executions generate exactly τ tuples (the paper's measure is
      algorithm-independent for materializing execution),

    so the cost-based chooser can only move wall-clock and operator
    counters, never the answer — which is precisely what the columns
    show: fastest-rep wall times, tuple-pair comparisons, and hash probes
    under each lowering, plus the per-step algorithms the chooser
    picked. *)

val run :
  ?baseline:Mj_engine.Planner.policy ->
  ?domains:int ->
  ?quick:bool ->
  unit ->
  Bench_core.leg
(** [baseline] defaults to [Planner.Hash_all].  [quick] (default
    [false]) trims database sizes to CI-smoke scale.  [domains]
    defaults to {!Mj_pool.Pool.default_domains} and is recorded for the
    report; the rows themselves run sequentially so wall times stay
    clean. *)

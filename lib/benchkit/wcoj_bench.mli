(** The WCOJ benchmark: generic join vs the best binary plan on cyclic,
    zipf-skewed workloads.

    Triangle and 4-clique counting over {!Mj_workload.Dbgen.skewed_db}
    populations — the regime where binary plans materialize an
    intermediate that is polynomially larger than the output (hot
    values meet hot values) while the generic join's work is bounded by
    the AGM fractional-cover bound.  Both contenders run on one
    pre-encoded {!Mj_relation.Frame.Db}, single-domain, interleaved
    reps, fastest rep kept; per row:

    - [binary_ms] / [wcoj_ms] — the columnar left-to-right fold vs
      {!Mj_relation.Frame.generic_join} under the planner's elimination
      order;
    - [tau_binary] / [tau_wcoj] — the τ certificates: what each
      contender materialized ([tau_wcoj] is exactly the output
      cardinality — the generic join has no intermediates);
    - [agm_bound] — the AGM output bound of the sub-database, the
      theoretical ceiling both τ figures are compared against;
    - [equal] — bit-identical result frames, certified every run;
    - [speedup_floor] — rows carrying a floor gate the bench, like
      every check ({!Bench_core.failures}). *)

val run : ?quick:bool -> unit -> Bench_core.leg
(** [quick] (default [false]) trims sizes to CI-smoke scale (triangle
    n=10⁴ with a 1.0× floor, 4-clique n=3·10³); the full grid adds
    triangle n=10⁵ with the 5.0× floor. *)

val binary_tau :
  Mj_relation.Frame.Db.t -> Mj_relation.Scheme.Set.t -> int
(** Σ intermediate and final rows of the single-domain left-to-right
    columnar fold over the sub-database: the binary contender's τ. *)

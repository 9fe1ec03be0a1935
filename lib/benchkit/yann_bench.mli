(** The YANN benchmark: Yannakakis's semijoin program vs the best
    binary plan on planted dangling-star and snowflake workloads.

    The population is adversarial for {e every} binary join order: hub
    rows fall into [k] groups, each heavy (fan-out [fanout]) at two
    spokes and dangling at the third, so whatever order a binary plan
    joins the spokes, the group whose dangling spoke comes last
    multiplies by [fanout²] {e before} it can be killed — an
    [Ω(n·fanout²/k)] intermediate, asymptotically above the
    [O(n·fanout)] input — while only [matching] rows reach the output.
    Yannakakis's up/down semijoin sweeps remove every dangling row for
    O(input) work before any join runs, so its join phase materializes
    [k·matching] tuples: the instance-optimal gap.
    Both contenders run on one pre-encoded {!Mj_relation.Frame.Db},
    single-domain, interleaved reps, fastest rep kept; per row:

    - [binary_ms] / [yann_ms] — the columnar left-to-right fold vs the
      engine's [Semijoin_program] over {!Mj_engine.Planner.yann_tree}'s
      cost-chosen rooted tree, run by
      {!Mj_engine.Frame_engine.execute_plan} — the path that ships;
    - [tau_binary] / [tau_yann] — the τ certificates (semijoins
      contribute none; [tau_yann] is the join phase only);
    - [equal] — yann and binary results equal;
    - [cert_ok] — the engine matrix {seed,frame} × {1,4} domains under
      the yann policy agrees on result and τ;
    - [topk_ok] / [topk_probes] — {!Mj_relation.Frame.topk} streams
      exactly the [topk_k]-prefix of the sorted full output straight
      off the base frames, with the probe counter as the
      output-sensitivity receipt: a row fails unless [topk_probes <
      binary_probes];
    - [speedup_floor] — rows carrying a floor gate the bench, like
      every check ({!Bench_core.failures}). *)

val run : ?quick:bool -> unit -> Bench_core.leg
(** [quick] (default [false]) trims sizes to CI-smoke scale (n=10⁴,
    fan-out 8, 1.0× floor on the star row); the full grid runs star and
    snowflake at n=10⁵, fan-out 16, with the 3.0× floor. *)

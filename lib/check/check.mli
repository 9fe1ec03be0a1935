(** The checks a fuzz case must survive.

    Independent oracles over one materialized case, each rooted in
    machine-checkable ground truth rather than golden outputs:

    - {!differential}: the engine matrix.  Both data planes × 1 and 4
      worker domains, under the binary [hash] lowering (4 cells; the
      4-domain cells join in 3-row morsels, so the frame plane's hash
      join takes the pool path whenever the pool grants more than one
      worker), must
      serve the reference's wire hash ([Protocol.result_hash]) and row
      count through [Engine.execute_digest] — what the serve daemon
      answers with; on the frame plane it hashes code buffers and never
      decodes — and produce the bit-identical result relation, the
      exact [Cost.tau] tuple count, the same per-step τ log and the
      same scan/join span skeleton in every cell.  The wcoj and yann
      legs below run the same matrix loop over their own policy; each
      supplies only its expected step log and its own extra check.
    - {!emission}: the frame hash join's order contract.  Every step
      of the case's strategy is joined inline on 1 domain and in 3-row
      morsels on 4, and the two must emit the same rows in the same
      order ([Frame.same_emission]).  Every finisher sorts the root,
      so this is the check that sees a merge in the wrong morsel
      order.
    - {!wcoj_differential}: the worst-case-optimal leg, separately.
      The [Wcoj] policy collapses cyclic strategies into one n-ary
      generic join, so its τ and span shapes legitimately differ from
      every binary cell; its expected per-step log is therefore derived
      from the lowered plan itself through the exact-cardinality cache
      (for a cyclic case: exactly one step pricing at [|R_D|]), and
      planes × domain counts must agree with {e each other}
      on served hash and rows, result, τ, steps and join spans.
    - {!yann_differential}: the Yannakakis leg.  The [yann] policy
      lowers α-acyclic strategies to a semijoin program over a
      cost-chosen join tree, so its expected step log is derived from
      the plan via the Goodman–Shmueli property: after a full
      reduction, every join-phase intermediate over a subtree prefix
      is [π_{prefix}(R_D)] — each priced step ≤ |R_D|.  Planes ×
      domain counts must agree on served hash and rows, result, τ,
      steps and
      scan/semijoin/join/topk span shapes, and on acyclic plans the
      ranked enumerator must stream exactly the k-prefix of the
      sorted full output for several k (cyclic strategies fall through
      to the wcoj arm and are priced like that leg).
    - {!serve_differential}: the [mjoin serve] daemon's warm path.
      Per plane, one {!Mj_serve.Serve} instance answers the case's
      strategy twice (plan-cache miss then hit) plus an
      alternate-strategy probe whose τ log provably differs; every
      response must match a cold single-shot [Engine.run] of the same
      request — rows, τ, result hash and the per-step τ log — and hit
      must agree with miss.  This is the leg that catches the
      [serve.cache_stale_plan] planted bug: a cross-strategy cache
      collision hands the probe the wrong plan, and its served τ log
      no longer matches its cold run.
    - {!twin}: the case's generated database is born coded; its
      relation-built twin ([Database.of_relations] over its states)
      encodes its own dictionary, the path CSV input and the scenarios
      take.  Across both planes × the hash, wcoj and yann
      policies, the two must lower to the same
      plan and give the same result, τ log, served digest and
      dictionary size.
    - {!metamorphic}: strategy rewrites that provably preserve the
      result or the cost — commuting every step leaves τ unchanged,
      {!Multijoin.Transform} surgeries and a left-deep rebuild leave
      the result relation unchanged — plus output-size sanity bounds
      (each step no larger than the product of its children, the
      result no larger than the product of the base relations).
    - {!theorems}: the paper's postconditions re-validated against
      {!Multijoin.Optimal}'s exhaustive DP — no theorem may come back
      [Refuted], the DP's reported optimum must equal the materialized
      τ of the strategy it returns and bound the case's own strategy,
      and the subspace minima must nest ([min_all ≤ min_cp_free], …).
      Every mask's cardinality in the default ([Frame]-counted) cache
      must equal its materialized join ([theorems:cache_exact]), and
      [Theorems.verify] must give the same report on the materializing
      [Seed] backend ([theorems:backends]).  The report's C1–C4,
      decided on masks, must equal those read off
      [Conditions.iter_triples] and [Conditions.iter_pairs]
      ([theorems:conditions]).
    - {!faults}: fault injection through {!Mj_failpoint.Failpoint} —
      a killed pool worker must not change pool results, a poisoned
      τ-cache must detect and bypass its corrupt entries, oversized
      estimates may change the [yann] join tree but not the result,
      and the τ log must be the one the lowered plan prices (on a
      semijoin-program plan the failpoint must fire), and the planted
      frame-plane mutations must be {e visible} — [frame.lossy_join]
      in the τ log, [yann.lossy_semijoin] in the yann cells' result
      (this is what the self-test leans on).  The serve failpoints are
      exercised too: under [serve.worker_stall] the daemon must answer
      with a structured [timeout] error (and the failpoint must fire),
      and a planted [serve.cache_stale_plan] collision must surface in
      the collided response's τ log.  Failpoint state is saved and
      restored around the pass.

    Each returns the first violated invariant as a {!failure}; the
    fuzz driver shrinks whatever case produced it. *)

open Mj_relation
open Multijoin

type failure = {
  check : string;  (** which invariant, e.g. ["differential:result"] *)
  detail : string;
}

type outcome = Pass | Fail of failure

val pp_failure : Format.formatter -> failure -> unit

val differential : Database.t -> Strategy.t -> outcome
val emission : Database.t -> Strategy.t -> outcome
val wcoj_differential : Database.t -> Strategy.t -> outcome
val yann_differential : Database.t -> Strategy.t -> outcome
val serve_differential : Database.t -> Strategy.t -> outcome
val twin : Database.t -> Strategy.t -> outcome
val metamorphic : Database.t -> Strategy.t -> outcome

val theorems : Database.t -> outcome
(** Exhaustive — intended for [|D| ≤ 5]; {!run_case} gates it on the
    descriptor size. *)

val faults : Database.t -> Strategy.t -> outcome

val run_case : ?faults:bool -> Gen.descriptor -> outcome
(** Materialize the descriptor and run every applicable check:
    differential (binary, wcoj, yann and serve legs), twin and
    metamorphic
    always,
    theorem postconditions when
    the database has at most 5 relations, and the fault-injection pass
    when [faults] (default [true]) {e and} no failpoint is already
    active — an externally injected fault (self-test, [MJ_FAILPOINTS])
    must stay active for the whole case, not be clobbered by the
    pass's own save/restore. *)

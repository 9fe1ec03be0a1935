(** The plan executor.

    Evaluates a {!Physical} plan bottom-up over the database's own
    frames ([Frame.Db.of_database]): every binary step
    is the compiled-key columnar hash join (on [Mj_pool.Pool] when its
    probe side spans two morsels and the pool grants two workers; see
    [Frame.natural_join]), a {!Physical.Generic_join} node runs the
    leapfrog kernel, and a semijoin program sweeps {!Frame.semijoin}
    before its join phase or its ranked enumeration ({!Frame.topk}).
    The root frame is then decoded to a [Relation.t] or, through
    {!execute_digest}, hashed on its code buffers.  The paper's algebra
    ([Multijoin.Cost.eval], [Cost.step_costs]) is the reference every
    result and τ log is checked against.

    The observability contract, which [mjoin explain]'s tree renderer
    reads: one ["scan"] span per leaf and one ["join"] span per step,
    each carrying [scheme] and [rows] attributes, joins additionally
    [algo] (["frame-hash"], or ["wcoj"] with an [order]); a semijoin
    program adds one ["semijoin"] span per sweep step (no τ entry) and
    ranked enumeration one ["topk"] span; the whole run is wrapped in
    an ["execute-frame"] span.  The counters [exec.tuples_generated],
    [frame.dict_size], [frame.partitions], [frame.morsels],
    [frame.probes], [frame.probe_hits] and [frame.sorted_rows] are
    added to the sink. *)

open Mj_relation

type stats = {
  tuples_generated : int;  (** the paper's τ: sum of step output rows *)
  result_rows : int;
  dict_size : int;         (** distinct values in the database's dictionary *)
  probes : int;
  probe_hits : int;
  partitions : int;        (** hash indexes the joins built (1 per hash join) *)
  morsels : int;           (** probe morsels the joins ran (1 per inline join) *)
  sorted_rows : int;
      (** rows that went through a sort ({!Mj_relation.Frame.stats}):
          the finisher's root order pass (none under {!execute_stats})
          plus any trie, generic-join or top-k sort; join steps sort
          nothing *)
  per_step : (Scheme.Set.t * int) list;  (** post-order, like [Cost.step_costs] *)
}

val scheme_key : Scheme.Set.t -> string
(** The canonical span attribute for a scheme set (shared with the
    explain renderer). *)

val execute_plan :
  ?obs:Mj_obs.Obs.sink -> ?domains:int -> ?morsel:int ->
  Database.t -> Physical.t -> Relation.t * stats
(** Execute a physical plan.  Results and [tuples_generated] agree
    with [Cost.eval] and [Cost.tau] of the plan's strategy — τ is a
    property of the join {e order}, not the kernel.

    Execution never mutates the database's frames, so concurrent
    executions share them.  [?morsel] is the hash join's probe-morsel
    size (default [Frame.default_morsel]).
    @raise Invalid_argument if a scanned scheme is missing from [db]. *)

val execute_digest :
  ?obs:Mj_obs.Obs.sink -> ?domains:int -> ?morsel:int ->
  Database.t -> Physical.t -> int64 * stats
(** {!execute_plan}, finished with [Frame.digest] of the root frame
    (inside a ["serve.certify"] span on [obs]) instead of a decode: the
    result hash is computed on code buffers and [result_rows] is the
    frame's cardinality, so no [Relation.t] is ever built.  Equal to
    [Relation.digest] of {!execute_plan}'s result. *)

val execute_stats :
  ?obs:Mj_obs.Obs.sink -> ?domains:int -> ?morsel:int ->
  Database.t -> Physical.t -> stats
(** {!execute_plan}'s stats alone: the root frame is neither ordered,
    decoded nor digested, so [sorted_rows] counts no finisher pass. *)

(** The columnar plan executor.

    Evaluates a {!Physical} plan bottom-up over
    {!Mj_relation.Frame} frames instead of seed {!Mj_relation.Relation}
    states: the database is dictionary-encoded once, every step is
    a compiled-key columnar hash join (on [Mj_pool.Pool] when its
    probe side spans two morsels and the pool grants two workers; see
    [Frame.natural_join]), and the final frame is decoded back, so callers see the same [Relation.t] the materializing
    {!Exec} engine produces — or, through {!execute_digest}, hashed on
    its code buffers when the caller only certifies the answer.

    Observability matches [Exec]: every leaf opens a ["scan"] span and
    every step a ["join"] span carrying ["scheme"] and ["rows"]
    attributes (so [mjoin explain]'s tree renderer works unchanged),
    and the frame-specific counters [frame.dict_size],
    [frame.partitions], [frame.morsels], [frame.probes],
    [frame.probe_hits] and [frame.sorted_rows] are added to the sink. *)

open Mj_relation

type stats = {
  tuples_generated : int;  (** the paper's τ: sum of step output rows *)
  result_rows : int;
  dict_size : int;         (** distinct values interned for the database *)
  probes : int;
  probe_hits : int;
  partitions : int;        (** index build parts the joins ran (1 per inline join) *)
  morsels : int;           (** probe morsels the joins ran (1 per inline join) *)
  sorted_rows : int;
      (** rows that went through a sort ({!Mj_relation.Frame.stats}):
          the finisher's root sort plus any trie, generic-join or top-k
          sort; join steps sort nothing *)
  per_step : (Scheme.Set.t * int) list;  (** post-order, like [Cost.step_costs] *)
}

val execute_plan :
  ?obs:Mj_obs.Obs.sink -> ?domains:int -> ?morsel:int -> ?fdb:Frame.Db.t ->
  Database.t -> Physical.t -> Relation.t * stats
(** Execute a physical plan on the columnar plane.  Every binary step
    runs the columnar hash join (span attribute [algo = "frame-hash"]).
    Results and [tuples_generated] agree with [Exec.execute] on the
    same plan — τ is a property of the join {e order}, not the
    kernel.

    [?fdb] supplies a pre-encoded copy of [db] (as built by
    [Frame.Db.of_database]) and skips the per-call dictionary encode —
    the warm-state hook the serve daemon uses to amortize encoding
    across queries.  The caller guarantees it encodes exactly [db];
    execution never mutates it, so one encoding may be shared by
    concurrent executions.
    @raise Invalid_argument if a scanned scheme is missing from [db]. *)

val execute_digest :
  ?obs:Mj_obs.Obs.sink -> ?domains:int -> ?morsel:int -> ?fdb:Frame.Db.t ->
  Database.t -> Physical.t -> int64 * stats
(** {!execute_plan}, finished with [Frame.digest] of the root frame
    (inside a ["serve.certify"] span on [obs]) instead of a decode: the
    result hash is computed on code buffers and [result_rows] is the
    frame's cardinality, so no [Relation.t] is ever built.  Equal to
    [Relation.digest] of {!execute_plan}'s result. *)

val execute_stats :
  ?obs:Mj_obs.Obs.sink -> ?domains:int -> ?morsel:int ->
  Database.t -> Physical.t -> stats
(** {!execute_plan}'s stats alone: the root frame is sorted, as every
    finisher does, but neither decoded nor digested. *)

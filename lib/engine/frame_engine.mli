(** The columnar strategy executor.

    Evaluates a {!Multijoin.Strategy} bottom-up over
    {!Mj_relation.Frame} frames instead of seed {!Mj_relation.Relation}
    states: the database is dictionary-encoded once (into the heap or
    off-heap bigarray row store selected by [?storage]), every step is
    a compiled-key columnar hash join (morsel-driven over
    [Mj_pool.Pool] on large inputs), and the final frame is decoded
    back, so callers see the same [Relation.t] the materializing
    {!Exec} engine produces — or, through {!execute_digest}, hashed on
    its code buffers when the caller only certifies the answer.

    Observability matches [Exec]: every leaf opens a ["scan"] span and
    every step a ["join"] span carrying ["scheme"] and ["rows"]
    attributes (so [mjoin explain]'s tree renderer works unchanged),
    and the frame-specific counters [frame.dict_size],
    [frame.partitions], [frame.morsels], [frame.probes],
    [frame.probe_hits] and [frame.sorted_rows] are added to the sink. *)

open Mj_relation
open Multijoin

type stats = {
  tuples_generated : int;  (** the paper's τ: sum of step output rows *)
  result_rows : int;
  dict_size : int;         (** distinct values interned for the database *)
  probes : int;
  probe_hits : int;
  partitions : int;        (** index build-partitions opened by parallel joins *)
  morsels : int;           (** probe morsels claimed by parallel joins *)
  sorted_rows : int;
      (** rows that went through a sort ({!Mj_relation.Frame.stats}):
          the finisher's root sort plus any trie, generic-join or top-k
          sort; join steps sort nothing *)
  per_step : (Scheme.Set.t * int) list;  (** post-order, like [Cost.step_costs] *)
}

val tiny_rows : int
(** The adaptive cutover: databases whose base relations total fewer
    rows than this (1024) execute single-domain on the non-partitioned
    join path, whatever [?domains] says — at that scale parallel
    fan-out only adds latency. *)

val execute :
  ?obs:Mj_obs.Obs.sink -> ?domains:int -> ?par_threshold:int ->
  ?morsel:int -> ?storage:Frame.storage ->
  Database.t -> Strategy.t -> Relation.t * stats
(** [execute db s] materializes every step of [s] columnar-side and
    returns the decoded result.  Agrees with [Exec.execute] on the
    result relation and with [Cost.tau db s] on [tuples_generated]
    (certified by the qcheck suite and [bench FRAME]).
    @raise Invalid_argument if a leaf scheme is missing from [db]. *)

val execute_plan :
  ?obs:Mj_obs.Obs.sink -> ?domains:int -> ?par_threshold:int ->
  ?morsel:int -> ?storage:Frame.storage -> ?fdb:Frame.Db.t ->
  Database.t -> Physical.t -> Relation.t * stats
(** Execute an annotated physical plan on the columnar plane.  The
    frame plane has exactly one join kernel, so the per-step algorithm
    annotations are {e advisory}: every step runs the columnar hash
    join (span attribute [algo = "frame-hash"]) whatever the plan says.
    Results and [tuples_generated] still agree with [Exec.execute] on
    the same plan — τ is a property of the join {e order}, not the
    algorithm — which is what lets the planner equivalence suite force
    any policy on either plane.

    [?fdb] supplies a pre-encoded copy of [db] (as built by
    [Frame.Db.of_database]) and skips the per-call dictionary encode —
    the warm-state hook the serve daemon uses to amortize encoding
    across queries.  The caller guarantees it encodes exactly [db];
    execution never mutates it, so one encoding may be shared by
    concurrent executions.  When present, [?storage] is ignored (the
    row store was chosen at encode time).
    @raise Invalid_argument if a scanned scheme is missing from [db]. *)

val execute_digest :
  ?obs:Mj_obs.Obs.sink -> ?domains:int -> ?morsel:int ->
  ?storage:Frame.storage -> ?fdb:Frame.Db.t ->
  Database.t -> Physical.t -> int64 * stats
(** {!execute_plan}, finished with [Frame.digest] of the root frame
    (inside a ["serve.certify"] span on [obs]) instead of a decode: the
    result hash is computed on code buffers and [result_rows] is the
    frame's cardinality, so no [Relation.t] is ever built.  Equal to
    [Relation.digest] of {!execute_plan}'s result. *)

(** The unified engine: one configuration, one lowering pipeline, two
    data planes.

    Everything an execution needs travels in one explicit
    {!Config.t} record built {e once} at a process entry point and
    threaded everywhere:

    {v
        flags / env                Strategy.t (logical join order)
            │                          │
            ▼                          ▼
       Config.make  ──────────►   Planner.lower   (binary, wcoj or yann)
            │                          │
            │                          ▼
            │                     Physical.t
            │                          │
            ▼                          ▼
       backend plane  ───────►   Driver walker  ──►  root item, stats
       (Seed | Frame)            (spans, τ log)          │
                                                         ▼
                                      to_relation (Relation.t) or
                                      digest (int64, no decode)
    v}

    The two planes implement the same {!Driver.PLANE} signature —
    {!Exec} over seed tuple lists, {!Frame_engine} over columnar
    frames — and {!execute_plan} / {!execute_digest} pick between
    them, so callers ([mjoin explain], [mjoin optimize], the bench
    harness, the serve daemon) never branch on the plane themselves.
    [Theorems.verify]'s τ oracle counts through [Frame] on every
    plane.

    Determinism: a [Config.t] pins every execution-relevant choice
    (plane, worker domains, lowering policy).  Lowering is a pure
    function of (database, strategy); both planes materialize every
    step, so result relations and τ are identical across planes and
    domain counts — the planner equivalence suite certifies this. *)

open Mj_relation
open Multijoin

type plane = Seed | Frame

val plane_name : plane -> string
val plane_of_string : string -> plane option
(** ["seed"] / ["frame"], case-insensitive. *)

module Config : sig
  type t = {
    plane : plane;  (** which data plane executes plans *)
    domains : int;  (** worker domains for parallel sections *)
    obs : Mj_obs.Obs.sink;  (** tracing/metrics sink (noop by default) *)
    algo_policy : Planner.policy;  (** how strategies lower to plans *)
    index_cache : Exec.index_cache;
        (** read by nothing: no kernel keeps an index between
            executions.  Kept only so that config literals outside
            [lib/] that set it still compile; {!of_env} sets a fresh
            one. *)
    telemetry : string option;
        (** JSONL sidecar path for per-query telemetry records
            ([MJ_TELEMETRY] / [--telemetry]); [None] disables *)
    frame_storage : Mj_relation.Frame.storage;
        (** read by nothing: frames have one row store.  Kept only so
            that config literals outside [lib/] that set it still
            compile; {!of_env} sets it to [Heap]. *)
    morsel : int option;
        (** probe-morsel rows for the frame plane's hash join
            ([MJ_MORSEL] / [--morsel]); [None] means
            [Frame.default_morsel] *)
  }

  val of_env : ?obs:Mj_obs.Obs.sink -> unit -> t
  (** The {e only} place in the library tree that reads the
      environment: [MJ_DATA_PLANE] (["frame"] selects the columnar
      plane), [MJ_DOMAINS] (worker count, clamped ≥ 1),
      [MJ_ALGO_POLICY] (["hash"], ["wcoj"] or ["yann"]; ["cost"] is an
      alias of ["hash"]),
      [MJ_TELEMETRY] (a
      JSONL sidecar path for per-query telemetry),
      [MJ_MORSEL] (probe-morsel rows for the hash join), and
      [MJ_FAILPOINTS] (a comma-separated list of fault-injection
      points forwarded to [Mj_failpoint.Failpoint.set_spec]).  An
      empty or blank variable counts as unset.  The variables are read
      once per process (memoized) and the resolved [MJ_DOMAINS] is
      registered with [Mj_pool.Pool.set_env_domains], so default-using
      callers observe the same environment without re-reading it.
      @raise Failure naming the variable on an unknown [MJ_FAILPOINTS]
      name, an unknown [MJ_DATA_PLANE] or [MJ_ALGO_POLICY], or a
      non-numeric [MJ_DOMAINS] or [MJ_MORSEL] — a typo'd setting must
      fail loudly, not silently run something else. *)

  val make :
    ?plane:plane ->
    ?domains:int ->
    ?policy:Planner.policy ->
    ?obs:Mj_obs.Obs.sink ->
    ?telemetry:string ->
    ?morsel:int ->
    unit ->
    t
  (** {!of_env} with explicit overrides — the documented precedence
      CLI flag > environment variable > built-in default, used by every
      [mjoin] subcommand and the bench harness. *)
end

(** Execution statistics common to both planes, with the plane-specific
    detail attached. *)
type stats = {
  plane : plane;
  tuples_generated : int;  (** the paper's τ: sum of step output rows *)
  result_rows : int;
  per_step : (Scheme.Set.t * int) list;  (** post-order, like [Cost.step_costs] *)
  seed : Exec.stats option;  (** [Some] iff [plane = Seed] *)
  frame : Frame_engine.stats option;  (** [Some] iff [plane = Frame] *)
}

val lower : Config.t -> Database.t -> Strategy.t -> Physical.t
(** {!Planner.lower} under the config's policy. *)

val execute_plan :
  ?fdb:Mj_relation.Frame.Db.t ->
  Config.t -> Database.t -> Physical.t -> Relation.t * stats
(** Run an already-lowered plan on the config's plane.  [?fdb] is a
    pre-encoded frame copy of the database ([Frame.Db.of_database]) —
    the serve daemon's warm dictionary; it is consulted only on the
    frame plane and is never mutated, so one encoding can back
    concurrent executions. *)

val execute_digest :
  ?fdb:Mj_relation.Frame.Db.t ->
  Config.t -> Database.t -> Physical.t -> int64 * stats
(** {!execute_plan} for callers that only certify the answer: the same
    walk, finished with [Relation.digest] of the result instead of the
    result itself.  On the frame plane the digest runs on the root
    frame's code buffers ([Frame.digest]) and [result_rows] is its
    cardinality, so no [Relation.t] is decoded; the seed plane digests
    its relation.  Equal to [Relation.digest] of {!execute_plan}'s
    result, bit for bit.  The digest pass runs inside a
    ["serve.certify"] span on the config's sink. *)

val execute_stats : Config.t -> Database.t -> Physical.t -> stats
(** {!execute_plan}'s stats alone, for callers that only report them
    ([mjoin optimize], [explain], [stats]): the same walk, finished
    without decoding, digesting or opening a span. *)

val run :
  ?fdb:Mj_relation.Frame.Db.t ->
  Config.t -> Database.t -> Strategy.t -> Relation.t * stats
(** [lower] then [execute_plan] — the whole
    Config → Planner → Engine path in one call.
    @raise Invalid_argument if the strategy mentions schemes outside
    the database. *)

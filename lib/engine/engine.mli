(** The unified engine: one configuration, one lowering pipeline, one
    executor.

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
       domains, morsel ──────►   Frame_engine  ──►  root frame, stats
                                 (spans, τ log)          │
                                                         ▼
                                      to_relation (Relation.t) or
                                      digest (int64, no decode)
    v}

    Callers ([mjoin explain], [mjoin optimize], the bench harness, the
    serve daemon) all execute through {!execute_plan},
    {!execute_digest} or {!execute_stats}.  The paper's algebra
    ([Relation], [Cost.eval], [Cost.step_costs], [Cost.Cache
    ~backend:Seed]) is the reference the fuzzer checks every result and
    τ log against; [Theorems.verify]'s τ oracle counts through [Frame].

    Determinism: a [Config.t] pins every execution-relevant choice
    (worker domains, lowering policy).  Lowering is a pure function of
    (database, strategy), and every step is materialized, so result
    relations and τ are identical across domain counts — the planner
    equivalence suite certifies this. *)

open Mj_relation
open Multijoin

type plane = Seed | Frame
(** Read by nothing: every plan runs on {!Frame_engine}.  Kept, with
    {!plane_name}, {!plane_of_string} and {!Config.t}'s [plane], only
    so that code outside [lib/] that names a plane still compiles. *)

val plane_name : plane -> string
val plane_of_string : string -> plane option
(** ["seed"] / ["frame"], case-insensitive. *)

module Config : sig
  type t = {
    plane : plane;
        (** read by nothing; {!make} stores what it is given, {!of_env}
            sets [Frame] *)
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
        (** probe-morsel rows for the hash join; [None] (what {!of_env}
            sets) means [Frame.default_morsel].  No flag or variable
            sets it: only callers of {!make} that need a small morsel
            to reach the pool path on small data (the fuzzer's
            multi-domain cells) *)
  }

  val of_env : ?obs:Mj_obs.Obs.sink -> unit -> t
  (** The only variables the library tree reads:
      [MJ_DOMAINS] (worker count, clamped ≥ 1),
      [MJ_ALGO_POLICY] (["hash"], ["wcoj"] or ["yann"]; ["cost"] is an
      alias of ["hash"]), [MJ_TELEMETRY] (a JSONL sidecar path for
      per-query telemetry), and [MJ_FAILPOINTS] (a comma-separated
      list of fault-injection points forwarded to
      [Mj_failpoint.Failpoint.set_spec]).  An empty or blank variable
      counts as unset.  The variables are read once per process
      (memoized) and the resolved [MJ_DOMAINS] is registered with
      [Mj_pool.Pool.set_env_domains], so default-using callers observe
      the same environment without re-reading it.
      @raise Failure naming the variable on an unknown [MJ_FAILPOINTS]
      name or [MJ_ALGO_POLICY], or a non-numeric [MJ_DOMAINS] — a
      typo'd setting must fail loudly, not silently run something
      else. *)

  val env_var : string -> expect:string -> (string -> 'a option) -> 'a option
  (** [env_var name ~expect parse] reads a variable as {!of_env} reads
      its own: [None] if unset or blank, else [parse] of the trimmed
      value.  @raise Failure naming the variable if [parse] rejects it. *)

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

(** Execution statistics. *)
type stats = {
  tuples_generated : int;  (** the paper's τ: sum of step output rows *)
  result_rows : int;
  per_step : (Scheme.Set.t * int) list;  (** post-order, like [Cost.step_costs] *)
  frame : Frame_engine.stats option;
      (** always [Some]: the executor's detail.  An option only so that
          code outside [lib/] that matches on it still compiles *)
}

val lower : Config.t -> Database.t -> Strategy.t -> Physical.t
(** {!Planner.lower} under the config's policy. *)

val execute_plan :
  ?fdb:Mj_relation.Frame.Db.t ->
  Config.t -> Database.t -> Physical.t -> Relation.t * stats
(** Run an already-lowered plan on {!Frame_engine} with the config's
    domains and morsel, over the database's one coded form
    ([Frame.Db.of_database]).  [?fdb] is read by nothing: it is kept
    only so that code outside [lib/] that passes it still compiles. *)

val execute_digest :
  Config.t -> Database.t -> Physical.t -> int64 * stats
(** {!execute_plan} for callers that only certify the answer: the same
    walk, finished with a digest of the result instead of the result
    itself.  The digest runs on the root frame's code buffers
    ([Frame.digest]) and [result_rows] is its cardinality, so no
    [Relation.t] is decoded.  Equal to [Relation.digest] of {!execute_plan}'s
    result, bit for bit.  The digest pass runs inside a
    ["serve.certify"] span on the config's sink. *)

val execute_stats : Config.t -> Database.t -> Physical.t -> stats
(** {!execute_plan}'s stats alone, for callers that only report them
    ([mjoin optimize], [explain], [stats]): the same walk, finished
    without decoding, digesting or opening a span. *)

val run :
  Config.t -> Database.t -> Strategy.t -> Relation.t * stats
(** [lower] then [execute_plan] — the whole
    Config → Planner → Engine path in one call.
    @raise Invalid_argument if the strategy mentions schemes outside
    the database. *)

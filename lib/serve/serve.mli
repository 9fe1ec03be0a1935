(** The [mjoin serve] daemon ([Mj_serve.Serve]).

    A long-running query service over the {!Protocol} NDJSON wire
    format that keeps warm state alive across queries:

    - a {e database registry} keyed by {!Protocol.workload_key} —
      materialized databases, each holding its one frame encoding
      ([Frame.Db.of_database], built on its first query and shared
      read-only by concurrent executions);
    - a bounded LRU {e plan cache} ({!Plan_cache}) keyed on
      [(stats epoch, policy, workload, strategy)] — hit/miss
      counters surface as the [Mj_obs] counters
      [serve.plan_cache_hit] / [serve.plan_cache_miss], and
      {!invalidate} bumps the epoch so every older key becomes
      unreachable and is purged;
    - {e admission control}: a queue-depth cap enforced with an atomic
      in-flight count — requests over the cap are shed with an
      [overloaded] response, never queued unboundedly;
    - {e cooperative timeouts}: each request carries a deadline
      ([timeout_ms]); a request that reaches its deadline before
      execution starts (e.g. under the [serve.worker_stall] failpoint)
      answers with a structured [timeout] error.  Cancellation is
      cooperative — an execution that already started runs to
      completion, so admitted requests never return wrong answers;
    - {e graceful drain}: {!request_stop} (the SIGTERM hook) lets the
      current batch finish, then the serve loops return.

    Failpoints: [serve.worker_stall] makes a worker sleep past its
    deadline (deterministic timeout testing); [serve.cache_stale_plan]
    drops the strategy component from plan-cache keys — the planted
    cross-strategy cache collision the [Mj_check] serve leg must
    detect through the per-step τ log. *)

open Mj_relation
open Multijoin
module Obs = Mj_obs.Obs
module Engine = Mj_engine.Engine
module Planner = Mj_engine.Planner

type t

val create :
  ?queue_cap:int ->
  ?timeout_ms:int ->
  ?plan_cache_cap:int ->
  cfg:Engine.Config.t ->
  unit ->
  t
(** [queue_cap] (default 64, clamped ≥ 0 — 0 sheds every query),
    [timeout_ms] (default 10_000, clamped ≥ 1), [plan_cache_cap]
    (default 128).  The config supplies the default lowering
    policy, worker domains and telemetry sidecar; its
    sink receives the serve counters and per-request spans. *)

val config : t -> Engine.Config.t
val queue_cap : t -> int
val timeout_ms : t -> int

(** {1 Warm-state introspection and control} *)

val epoch : t -> int
(** The current catalog-stats epoch (starts at 0). *)

val invalidate : t -> int
(** Bump the epoch and purge every plan cached under an older one;
    returns how many plans were dropped.  Also clears the database
    registry — stale statistics mean the materialized state can no
    longer be trusted. *)

val counters : t -> (string * int) list
(** Snapshot of the serve counters: [serve.requests],
    [serve.queries], [serve.plan_cache_hit], [serve.plan_cache_miss],
    [serve.plan_cache_evictions], [serve.plan_cache_size],
    [serve.db_registry], [serve.overloaded], [serve.timeouts],
    [serve.errors], [serve.invalidations], [serve.epoch]. *)

(** {1 Requests} *)

val submit_query :
  t ->
  ?id:int ->
  ?obs:Obs.sink ->
  ?strategy:Strategy.t ->
  ?policy:Planner.policy ->
  key:string ->
  db:(unit -> Database.t) ->
  unit ->
  string
(** Execute one query against the warm state, bypassing the JSON
    parser — the entry point the check harness and the tests drive
    directly.  [key] identifies the database in the registry; [db] is
    only forced on a registry miss.  [strategy] defaults to
    {!Protocol.default_strategy}, [policy] to the config's.
    [obs] (default: the config's sink) receives the request span —
    pass each concurrent caller its own child sink.  The answer is
    certified on the native result ([Engine.execute_digest], inside a
    [serve.certify] child span of [serve.request]): the root frame's
    code buffers are hashed and no [Relation.t] is decoded.  The
    response's [ms] and the telemetry [duration_ms] cover execution
    {e and} certification.  Returns the response line (status [ok],
    [error] or [overloaded]). *)

val handle_requests :
  t ->
  ?obs:Obs.sink ->
  (Protocol.request, string) result list ->
  string list
(** One admission round over parsed request lines ({!Protocol.parse}):
    answer each parse error [bad_request], shed queries beyond the
    queue cap with [overloaded] responses, dispatch the admitted ones
    onto the [Mj_pool.Pool] worker set (each with its own trace lane),
    then apply control ops (stats/invalidate/ping/shutdown) in input
    order.  Responses come back in request order.  All admitted
    requests complete before this returns — the drain guarantee. *)

val handle_line : t -> ?obs:Obs.sink -> string -> string
(** [handle_requests] over one parsed line, whose query runs inline on
    the calling domain; never raises — malformed input becomes a
    structured [error] response. *)

(** {1 Serving loops} *)

val request_stop : t -> unit
(** Ask the serve loops to exit after the in-flight batch — what the
    SIGTERM handler calls. *)

val stopped : t -> bool

val max_line : int
(** The longest request line {!serve_fd} reads, newline excluded
    (4 MiB). *)

val serve_fd : t -> Unix.file_descr -> Unix.file_descr -> unit
(** Serve NDJSON requests from one descriptor pair until EOF, a
    [shutdown] op, or {!request_stop}.  Consecutive already-buffered
    lines are batched through {!handle_requests} (so piped workloads
    exercise admission control); responses are written in request
    order and flushed per batch.  Each input byte is searched for a
    newline once; a line longer than {!max_line} is answered
    [bad_request] and skipped up to its newline. *)

val listen_and_serve : t -> Unix.sockaddr -> unit
(** Bind, listen and accept one client at a time, running {!serve_fd}
    per connection, until a client sends [shutdown] or
    {!request_stop}.  Unix-domain socket paths are unlinked on bind
    and on exit. *)

val sockaddr_of_listen : string -> (Unix.sockaddr, string) result
(** Parse a [--listen] spec: ["unix:PATH"], ["HOST:PORT"] (numeric
    host) or ["PORT"] (loopback). *)

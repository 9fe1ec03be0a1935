(** The [mjoin serve] wire protocol ([Mj_serve.Protocol]).

    Newline-delimited JSON, one request object per line, one response
    object per line, in request order.  A request names a {e workload}
    (the same shape/rows/domain/regime/seed knobs every [mjoin]
    subcommand takes — materialization is deterministic, so client and
    server agree on the database without shipping tuples) plus the
    engine knobs (policy, an optional explicit strategy in the paper's
    [(AB * BC) * CD] notation).  A ["plane"] field is still accepted
    and validated, then ignored.

    Requests:
    {v
    {"id":1,"op":"query","shape":"chain","n":4,"seed":7,"rows":40,
     "domain":12,"regime":"uniform","policy":"hash",
     "strategy":"(AB * BC) * CD"}
    {"id":2,"op":"stats"}
    {"id":3,"op":"invalidate"}
    {"id":4,"op":"ping"}
    {"id":5,"op":"shutdown"}
    v}

    Responses carry ["status"]: ["ok"], ["error"] (with ["error"] and
    ["code"] fields — the per-request failure channel; the daemon
    itself never dies on a bad request) or ["overloaded"] (admission
    control shed the request).  A query response certifies its answer
    compactly: ["rows"], ["tau"], ["hash"] (a 64-bit FNV-1a digest
    of the result relation, see {!result_hash}) and ["steps"] (the
    per-step τ log) — everything a client needs to compare against a
    cold [Engine.run] of the same request, bit for bit. *)

open Mj_relation
open Multijoin

(** {1 Workloads} *)

type workload = {
  shape : string;  (** chain/star/cycle/clique/path/snowflake/random *)
  n : int;
  rows : int;
  domain : int;
  regime : string;  (** uniform/skewed/superkey/consistent *)
  seed : int;
}

val default_workload : workload
(** [chain, n=3, rows=16, domain=16, uniform, seed=0] — what request
    fields default to when omitted. *)

val materialize : ?rng:Random.State.t -> workload -> Database.t
(** The database a workload denotes: the {!Mj_workload.Dbgen.shapes}
    shape, filled per {!Mj_workload.Dbgen.of_regime}.  One random
    state draws the shape (only [random] draws), then the data; it is
    [rng], by default [Random.State.make [|seed|]].  This is the one
    builder of a workload's database: the CLI's generation flags, the
    serve protocol's query fields and the fuzzer's descriptors
    ({!Mj_check.Gen}, which passes an [rng] seeded by every field and
    then draws its strategy from it) all come here, so the same fields
    give the same database anywhere.
    @raise Invalid_argument on an unknown shape or regime or an
    out-of-range knob (e.g. [cycle] with [n < 3], [superkey] with
    [rows > domain]). *)

val default_strategy : Database.t -> Strategy.t
(** The strategy used when a request names none: left-deep over the
    database's sorted scheme list — deterministic and
    catalog-independent. *)

val workload_key : workload -> string
(** Canonical one-line rendering, e.g.
    ["chain n=4 rows=40 domain=12 regime=uniform seed=7"] — the
    database registry key and the stable prefix of plan-cache keys. *)

(** {1 Requests} *)

type query = {
  workload : workload;
  policy : Mj_engine.Planner.policy;
  plane : Mj_engine.Engine.plane option;
      (** the request's ["plane"], validated ([seed] or [frame]) and
          then read by nothing: every query runs on the one executor.
          Kept only so that code outside [lib/] that reads it still
          compiles *)
  strategy : string option;  (** paper notation; [None]: left-deep *)
}

type op =
  | Query of query
  | Stats  (** counters snapshot: cache hits/misses, epoch, … *)
  | Invalidate
      (** bump the stats epoch: every cached plan keyed under the old
          epoch becomes unreachable and is purged *)
  | Ping
  | Shutdown  (** drain and exit cleanly *)

type request = { id : int option; op : op }

val max_n : int
val max_rows : int
val max_domain : int
(** The bounds a query's workload must keep: [n] in [1 .. max_n] (16),
    [rows] in [0 .. max_rows] (10,000) and [domain] in
    [1 .. max_domain] (100,000), so one request cannot make the daemon
    materialize an arbitrarily large database. *)

val parse : string -> (request, string) result
(** Parse one request line.  [Error] carries a human-readable reason
    (malformed JSON, unknown op/policy/plane/shape/regime, bad
    strategy syntax, a workload field outside its bound, e.g. ["field
    rows must be between 0 and 10000"]) — the daemon turns it into a
    structured ["error"] response, never a crash. *)

(** {1 Responses} *)

val ok : id:int option -> (string * Mj_obs.Json.t) list -> string
val error : id:int option -> code:string -> string -> string
val overloaded : id:int option -> string

val status_of_response : string -> string
(** The ["status"] field of a response line (["invalid"] if the line
    does not parse) — what load generators switch on. *)

val steps_json : (Scheme.Set.t * int) list -> Mj_obs.Json.t
(** The wire rendering of a per-step τ log ([Engine.stats.per_step]):
    an array of [{"scheme": "...", "rows": N}] objects in post-order —
    what query responses carry and what oracle comparisons rebuild
    from a cold run. *)

(** {1 Result digests} *)

val result_hash : Relation.t -> int64
(** [Relation.digest]: 64-bit FNV-1a over the scheme string followed by
    ["\n"] and the {!Tuple.to_string} rendering of each tuple in
    ascending {!Tuple.compare} order.  That byte stream is the wire
    contract: every release must hash it bit for bit, and the daemon
    computes it on the native result ([Frame.digest], no decode).  Equal relations always hash equal;
    the converse holds only up to 64-bit collisions, so a matching
    hash is strong evidence, not a proof, that two answers agree. *)

val hash_hex : int64 -> string

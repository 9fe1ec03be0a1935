(** Fault-injection points ([Mj_failpoint]).

    A {e failpoint} is a named place in the engine where a fault can be
    injected on demand: a pool worker dies, a τ-cache entry is
    corrupted in storage, a cardinality estimate comes back wildly
    oversized, a columnar join loses a row.  The registry is
    process-global and domain-safe (atomics throughout), off by
    default, and costs one atomic load per consultation when idle.

    Failpoints exist so the check harness ([Mj_check]) can assert the
    engine's failure contract: under an injected fault the system
    either {e degrades gracefully} (the pool falls back to serial
    execution, the cache detects the corrupt entry and bypasses it) or
    {e fails loudly} ({!Injected} propagates) — it never silently
    returns corrupt results.  [frame.lossy_join] is the deliberate
    exception: it is the planted mutation [mjoin fuzz --self-test]
    uses to prove the harness detects and shrinks real bugs.

    Activation is env/config-driven: [Mj_engine.Engine.Config.of_env]
    reads [MJ_FAILPOINTS] (a comma-separated list of names) once per
    process and forwards it to {!set_spec}; tests flip individual
    points with {!enable}/{!disable}/{!reset}. *)

type t =
  | Pool_worker_kill
      (** a spawned pool worker raises {!Injected} after claiming its
          first task; the pool must recover by finishing the work
          serially *)
  | Cache_poison
      (** [Cost.Cache] stores a corrupted (negative) copy of every
          newly computed cardinality; reads must detect the corruption
          and bypass the entry *)
  | Estimate_oversize
      (** the cost-based planner's estimator multiplies every estimate
          by 1000 — plans may change, results must not *)
  | Frame_lossy_join
      (** the frame plane drops the last row of every non-empty join
          output — the planted defect the self-test must catch *)
  | Yann_lossy_semijoin
      (** the frame plane's Yannakakis path drops the last row of every
          non-empty semijoin output — the acyclic-path twin of
          [frame.lossy_join], planted so the yann differential leg
          proves it would catch a lossy reducer *)
  | Serve_worker_stall
      (** a serve worker sleeps past the per-request deadline before
          executing — the daemon must answer with a structured timeout
          error, never a hang or a partial result *)
  | Serve_stale_plan
      (** the serve plan cache ignores the strategy component of its
          key, so a repeated query shape can be answered with a plan
          lowered for a {e different} strategy — the planted serve bug
          the self-test must detect via its τ step log *)
  | Frame_skip_root_sort
      (** the frame plane's finishers skip the sort of the root frame
          ([Frame.sort] marks it sorted as emitted), so decode and
          digest read the join's emission order — the planted defect
          that shows the digest check sees a missing sort *)
  | Cost_cp_product
      (** [Cost.Cache] prices every unconnected sub-database at the
          product of its components' cardinalities plus one — the
          planted defect that shows the theorem checks see a wrong
          product rule *)
  | Frame_lost_morsel
      (** the frame plane's parallel hash join leaves the last probe
          morsel's rows out of its merge — the planted defect that
          shows the fuzzer's multi-domain cells reach the pool path *)

exception Injected of string
(** Raised by {!trip}; carries the failpoint name. *)

val all : t list

val name : t -> string
(** ["pool.worker_kill"], ["cost.cache_poison"], ["estimate.oversize"],
    ["frame.lossy_join"], ["yann.lossy_semijoin"],
    ["serve.worker_stall"], ["serve.cache_stale_plan"],
    ["frame.skip_root_sort"], ["cost.cp_product"],
    ["frame.lost_morsel"]. *)

val of_name : string -> t option

(** {1 Activation} *)

val enable : t -> unit
val disable : t -> unit

val reset : unit -> unit
(** Deactivate every failpoint and zero the hit counters. *)

val active : t -> bool

val set_spec : string -> (unit, string) result
(** [set_spec "pool.worker_kill,frame.lossy_join"] activates exactly
    the listed failpoints (clearing all others; whitespace tolerated;
    the empty string deactivates everything).  [Error msg] on an
    unknown name — a typo'd injection must fail loudly, not silently
    test nothing. *)

val spec : unit -> string
(** The active failpoints as a {!set_spec}-compatible string. *)

val with_saved : (unit -> 'a) -> 'a
(** [with_saved f] runs [f], then restores the failpoints that were
    active before it, however [f] returns; hit counters are zeroed. *)

(** {1 Consultation — the hooks the engine calls} *)

val fire : t -> bool
(** [fire p] is [true] iff [p] is active; counts a hit when it is.
    For faults expressed as data corruption (poison, oversize,
    lossy). *)

val trip : t -> unit
(** @raise Injected when active (counting a hit) — for faults
    expressed as a crash (worker kill). *)

val hits : t -> int
(** Times the failpoint fired since the last {!reset} — how the
    harness asserts an injected fault was actually exercised. *)

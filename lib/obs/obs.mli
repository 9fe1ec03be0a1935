(** Unified tracing and metrics ([Mj_obs]).

    One sink abstraction serves the whole system:

    - {e spans} — nested monotonic-clock-timed regions with JSON
      attributes, collected into an in-memory trace tree ({!trace});
    - {e metrics} — named counters and log-bucketed quantile histograms
      in a {!registry}, either standalone (the engine's execution
      statistics) or attached to a sink (optimizer search-effort
      counters);
    - {e domain lanes} — {!fork} hands worker domains private child
      sinks that {!merge_child} stitches back into the parent trace
      deterministically;
    - exporters live in {!Export}: a human tree renderer, a JSONL /
      Chrome-trace-event writer, and Prometheus text exposition.

    The zero-instrumentation path is free by construction: {!noop} is a
    constant, every operation on it is one pattern match, and hot loops
    obtain {!counter} handles once — a handle is a mutable record whose
    bump compiles to a field assignment, identical in cost to the
    ad-hoc mutable records the engine used before this layer existed. *)

(** {1 Metrics} *)

type counter
type histogram

type histo_summary = {
  count : int;
  sum : float;
  min : float;  (** [infinity] when [count = 0] *)
  max : float;  (** [neg_infinity] when [count = 0] *)
  p50 : float;
  p90 : float;
  p95 : float;
  p99 : float;
}
(** Quantiles come from the fixed log-bucket layout: 16 linear
    sub-buckets per power of two, so each is within one sub-bucket
    (relative error ≤ 1/16) of the exact nearest-rank quantile, and
    clamped to the observed [min]/[max].  All are [0.0] when
    [count = 0]. *)

type registry
(** A named collection of counters and histograms.  Registration is
    idempotent: asking twice for the same name returns the same
    handle.  Iteration order is registration order. *)

val registry : unit -> registry
val reg_counter : registry -> string -> counter
val reg_histogram : registry -> string -> histogram

val incr : counter -> int -> unit
val record_max : counter -> int -> unit
(** Gauge-style update: keep the maximum value ever recorded. *)

val value : counter -> int
val observe : histogram -> float -> unit

val quantile : histogram -> float -> float
(** Nearest-rank quantile from the bucket counts; [0.0] when empty.
    Because the bucket layout is global and fixed, quantiles commute
    with {!merge_registry}: merge-of-shards equals shard-of-merges. *)

val summary : histogram -> histo_summary

val counter_list : registry -> (string * int) list
val histogram_list : registry -> (string * histo_summary) list

(** {1 Sinks} *)

type sink

val noop : sink
(** The default everywhere an [?obs] parameter appears: records
    nothing, costs nothing. *)

val monotonic_time : unit -> float
(** [CLOCK_MONOTONIC] in seconds (arbitrary origin) — the default span
    clock.  Never jumps backwards, unlike [Unix.gettimeofday]. *)

val make : ?clock:(unit -> float) -> ?gc:bool -> unit -> sink
(** A collecting sink.  [clock] defaults to {!monotonic_time}; pass a
    deterministic clock for golden tests.  Span timestamps are relative
    to sink creation (monotonic-relative, not wall-clock).  When [gc]
    is [true] (the default) every span carries [Gc.quick_stat] deltas
    ([gc.minor_words], [gc.promoted_words], [gc.major_words],
    [gc.minor_collections], [gc.major_collections]) as attributes, and
    root-span deltas accumulate into sink counters of the same names;
    pass [~gc:false] for byte-identical golden traces. *)

val enabled : sink -> bool
(** [false] exactly for {!noop} — guard attribute construction with
    this to keep the disabled path allocation-free. *)

(** {1 Spans} *)

type span_tree = {
  name : string;
  start : float;     (** seconds since sink creation *)
  duration : float;
  attrs : (string * Json.t) list;
  children : span_tree list;
}

val span : sink -> ?attrs:(string * Json.t) list -> string -> (unit -> 'a) -> 'a
(** [span t name f] runs [f] inside a timed region nested under the
    currently open span.  The span is closed (and timed) even when [f]
    raises.  Every close also observes the duration into the sink
    histogram [span.<name>.ms].  On {!noop} this is exactly [f ()]. *)

val set_attr : sink -> string -> Json.t -> unit
(** Attach an attribute to the innermost open span — for values only
    known mid-region, like an output cardinality. *)

val event : sink -> ?attrs:(string * Json.t) list -> string -> unit
(** A zero-duration child of the current span. *)

val trace : sink -> span_tree list
(** Completed root spans in order; empty for {!noop}. *)

(** {1 Per-domain child sinks}

    Worker domains must never touch a parent sink's mutable span stack.
    Instead the parent {!fork}s one child sink per {e task}, each task
    records into its own child (on whatever domain runs it), and after
    the parallel section the parent calls {!merge_child} in task-index
    order — so the merged trace is identical for any domain count, with
    only the [domain] lane attribute varying.  [Mj_pool.Pool.run_traced]
    packages this protocol. *)

val fork : sink -> sink
(** A child sink sharing the parent's epoch, clock source and GC flag,
    with private span state and registry.  {!fork} of {!noop} is
    {!noop}. *)

val set_lane : sink -> int -> unit
(** Tag the child with the worker lane (worker index) executing it;
    {!merge_child} stamps the tag as a [domain] attribute on the
    child's root spans, which the Chrome exporter renders as per-domain
    [tid] lanes. *)

val lane : sink -> int
(** The tag set by {!set_lane}, [-1] if none. *)

val merge_child : sink -> sink -> unit
(** [merge_child parent child] appends the child's completed root spans
    as children of the parent's innermost open span (or as parent
    roots), and folds the child's registry — counters, histogram
    buckets, GC totals — into the parent's.  Call from the parent's
    domain only, after the child's work completed. *)

(** {1 Sink-level metrics} *)

val counter : sink -> string -> counter
(** The sink-registry counter of that name.  For {!noop} one shared
    dummy handle is returned (its name is ["noop"]): callers bump it
    freely and the value simply is never read. *)

val histogram : sink -> string -> histogram
(** Same contract as {!counter}: one shared dummy handle on {!noop}. *)

val add : sink -> string -> int -> unit

val merge_registry : sink -> registry -> unit
(** Fold a standalone registry's totals into the sink — how the
    engine's per-execution statistics become part of a trace.
    Histograms merge exactly, bucket by bucket. *)

val counters : sink -> (string * int) list
val histograms : sink -> (string * histo_summary) list

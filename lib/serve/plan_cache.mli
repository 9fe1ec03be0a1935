(** A bounded LRU cache for lowered plans ([Mj_serve.Plan_cache]).

    Pure data structure, no locking: the serve daemon guards every call
    with its own mutex, and the unit tests exercise the eviction and
    invalidation laws directly.  Keys are the canonical strings the
    daemon builds from (workload, strategy, policy, stats epoch); values are whatever the caller caches (lowered
    [Physical.t] plans).  Hit/miss/eviction counts accumulate in the
    cache so the daemon can export them as [Mj_obs] counters. *)

type 'v t

val create : cap:int -> 'v t
(** [cap] is clamped to ≥ 1. *)

val cap : 'v t -> int
val length : 'v t -> int

val find : 'v t -> string -> 'v option
(** Bumps the entry's recency and the hit counter on [Some], the miss
    counter on [None]. *)

val add : 'v t -> string -> 'v -> unit
(** Insert (or refresh) a binding, evicting the least-recently-used
    entry when the cache is full — each eviction counted. *)

val remove_where : 'v t -> (string -> bool) -> int
(** Drop every binding whose key satisfies the predicate (stats-epoch
    invalidation); returns how many were dropped.  Dropped entries are
    {e not} counted as evictions — eviction is capacity pressure,
    invalidation is staleness. *)

val hits : 'v t -> int
val misses : 'v t -> int
val evictions : 'v t -> int

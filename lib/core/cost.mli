(** The cost measure τ.

    The paper measures a strategy by the number of tuples generated: for
    a step [s] producing the relation state [R], [τ(s) = τ(R)], and
    [τ(S)] is the sum over all [|D| - 1] steps (intermediate {e and}
    final results).  Leaves are free: base relations are not generated.

    [tau] materializes every intermediate state against an actual
    database — the ground truth the theorems speak about.  [tau_oracle]
    accepts any cardinality function instead, which is how estimated
    costs (see [Mj_optimizer]) plug into the same formula. *)

open Mj_relation
open Mj_hypergraph

val eval : Database.t -> Strategy.t -> Relation.t
(** [eval db s] is [R_{D'}] for the strategy's scheme set: the join of
    the base states, evaluated in the strategy's order (the result is
    order-independent; the cost is not).
    @raise Invalid_argument if the strategy mentions a scheme missing
    from [db]. *)

val tau : Database.t -> Strategy.t -> int
(** The paper's [τ(S)] with actual tuple counts. *)

val step_costs : Database.t -> Strategy.t -> (Scheme.Set.t * int) list
(** Post-order list of [(D', τ(R_{D'}))] for each step — the rows of the
    worked examples' cost tables.  The last entry is the final result. *)

val tau_oracle : (Scheme.Set.t -> int) -> Strategy.t -> int
(** [tau_oracle card s] sums [card] over the scheme set of every step.
    [tau db s = tau_oracle (fun d -> cardinality of the joined states) s]. *)

(** The shared τ-oracle cache: exact sub-database cardinalities
    hash-consed on their {!Bitdb} mask over the database's universe.

    One cache can back the subset DP, the condition checkers and the
    theorem validators of a single database at once, so the same
    sub-database join is never materialized twice across them.  Cache
    traffic is observable: pass an {!Mj_obs.Obs.sink} and the counters
    [cost.cache_hits] / [cost.cache_misses] record the savings.

    Only connected sub-databases are counted by the backend.  An
    unconnected one is priced by the product rule: its components share
    no attribute, so its join is their Cartesian product and its size
    the product of theirs.  Each component is read through
    {!card_mask}, in {!Mj_hypergraph.Bitdb.components} order, stopping
    at the first empty one, and the product (saturating at [max_int],
    {!Mj_relation.Frame.Db.saturating_mul}) is stored like any other
    entry.  A miss on an unconnected mask therefore also counts one hit
    or miss per component read. *)
module Cache : sig
  type t

  type backend =
    | Seed
        (** materialize through the seed [Relation] algebra: the
            reference the [Frame] counts are checked against *)
    | Frame  (** count through the columnar {!Mj_relation.Frame} path *)

  val create : ?obs:Mj_obs.Obs.sink -> ?backend:backend -> Database.t -> t
  (** [backend] defaults to [Frame].  Both
      backends produce identical cardinalities (certified by
      [bench FRAME], the qcheck equivalence suite and the fuzzer's
      theorem checks); [Frame] encodes the database and builds a
      {!Mj_relation.Frame.Db.counter} once, on the first miss, and
      counts each connected mask with {!Mj_relation.Frame.Db.count}:
      α-acyclic masks without joining, cyclic cores by merging linked
      pairs into projected, weighted bags.  No [Frame] miss
      materializes the mask's join. *)

  val database : t -> Database.t

  val universe : t -> Bitdb.t
  (** The indexed universe over [Database.schemes db]; masks passed to
      {!card_mask} are interpreted against it. *)

  val card_mask : t -> int -> int
  (** Exact cardinality of the joined sub-database denoted by a mask,
      computed on first request: counted by the backend when connected,
      the product of its components' cardinalities otherwise. *)

  val card : t -> Scheme.Set.t -> int
  (** [Scheme.Set] edge of the same cache.
      @raise Invalid_argument if a scheme is not in the database. *)

  val agm_mask : t -> int -> float option
  (** The AGM fractional-cover output bound of the sub-database denoted
      by a mask (see {!Mj_hypergraph.Cover.agm_bound}), computed over
      base-relation cardinalities only — no join is ever materialized —
      and memoized per mask.  [None] when the LP does not price the
      sub-database (empty, or more than
      [Mj_hypergraph.Cover.max_lp_relations] relations). *)

  val agm : t -> Scheme.Set.t -> float option
  (** [Scheme.Set] edge of {!agm_mask}.
      @raise Invalid_argument if a scheme is not in the database. *)

  val hits : t -> int
  val misses : t -> int

  val bypasses : t -> int
  (** Reads that found a corrupt (negative) entry — impossible for a
      legitimately stored cardinality — and recomputed instead of
      trusting it.  Non-zero only under the
      [Mj_failpoint.Cache_poison] failpoint, whose injected corruption
      this guard turns into a graceful cache bypass (also surfaced as
      the [cost.cache_bypass] counter on the sink). *)

  val entries : t -> int
end

val cardinality_oracle : Database.t -> Scheme.Set.t -> int
(** The exact oracle: the cardinality of the sub-database's join,
    counted by a fresh [Frame]-backed {!Cache.t} without materializing
    the join.  Results are memoized per returned closure, so sharing one
    oracle across many strategies for the same database avoids
    recomputation. *)

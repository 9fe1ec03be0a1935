(** The FRAME benchmark: seed data plane vs columnar frames, head to head.

    Each row times one workload through the seed
    [Relation]/[Exec]/[Cost.Cache Seed] path and through the columnar
    {!Mj_relation.Frame} path, and certifies both produce identical
    results:

    - ["join-micro"] — natural-join fold over a generated chain/star
      database of [n] tuples per relation, frames pinned to one domain;
      certifies [Relation.equal] of the decoded result.
    - ["join-morsel"] — the same columnar join at 1 domain vs the pool's
      domain count, with probe sides spanning several morsels (the
      quick row uses 250-row morsels) so the joins take the pool
      wherever it grants two workers; the speedup column is the
      parallel scaling, and equality is bit-identical frames.
    - ["exec-engine"] — [Exec.execute] vs [Frame_engine.execute_plan]
      on one left-deep hash plan; certifies equal result relations and
      equal τ.  At n ≥ 200 the row carries a
      [speedup_floor] of 1.0: the frame plane must not lose to the seed
      executor at small n.
    - ["certify"] — the warm certify of a served chain-4 and path-4
      query at 400 rows: the ["serve.certify"] span of
      [Engine.execute_digest] on the seed plane ([Relation.make] of the
      root list, then its digest) against the frame plane (one order
      pass and one hash loop over the unsorted root), medians of
      alternated runs ({!Bench_core.race_median}); certifies equal
      digests, and records the result [rows], the frame plane's
      [sorted_rows] and the digest's [hashed_bytes] as deterministic
      fields.
    - ["tau-gamma"] — a GAMMA-style trial loop (exact optimum + linear
      optimum per seeded database) driven once by a [Cost.Cache Seed]
      and once by a [Cost.Cache Frame]; certifies bit-identical τ tables
      (every sub-database cardinality) and identical optimum costs.
    - ["tau-thm"] — [Theorems.verify] per seeded database under both
      backends; certifies identical reports.  Chain-6 databases, like
      ["tau-gamma"]: every mask is α-acyclic.
    - ["tau-thm-clique"] — the same over the 4-clique's six relations,
      whose cyclic masks the frame counter merges.

    Every row is timed alone, one after another, so no row's wall time
    carries a sibling's load; only the ["join-morsel"] row's own joins
    use the pool. *)

val run : ?domains:int -> ?quick:bool -> unit -> Bench_core.leg
(** [quick] (default [false]) trims sizes to CI-smoke scale.  [domains]
    defaults to {!Mj_pool.Pool.default_domains}.  Rows carry [seed_ms],
    [frame_ms] (fastest rep, the median for ["certify"]; for
    ["join-morsel"] the 1-domain and pool-width frame joins), [seed_value]/[frame_value] and the
    [equal] check; the document's [morsel] is the join-morsel row's
    probe-morsel size and its [dict_size] counts the interned values of
    the largest join-micro database. *)

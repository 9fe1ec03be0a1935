(** The FRAME benchmark: the paper's seed algebra vs columnar frames,
    head to head.

    Each row times one workload through the seed
    [Relation]/[Cost.eval]/[Cost.Cache Seed] reference and through the
    columnar {!Mj_relation.Frame} path, and certifies both produce
    identical results:

    - ["join-micro"] — natural-join fold over a generated chain/star
      database of [n] tuples per relation, frames pinned to one domain,
      the two sides raced ({!Bench_core.race}); certifies
      [Relation.equal] of the decoded result.
    - ["exec-engine"] — [Cost.eval] of a left-deep strategy vs
      [Frame_engine.execute_plan] of its hash plan; certifies equal
      result relations and equal τ.  At n ≥ 200 the row carries a
      [speedup_floor] of 1.0: the engine must not lose to the algebra
      it is checked against at small n.
    - ["certify"] — the warm certify of a served chain-4 and path-4
      query at 400 rows: the ["serve.certify"] span of
      [Engine.execute_digest] (one order pass and one hash loop over
      the unsorted root frame), the median of its runs
      ({!Bench_core.median_of}); certifies the digest equal to
      [Relation.digest] of the reference join, and records the result
      [rows], the [sorted_rows] and the digest's [hashed_bytes] as
      deterministic fields.
    - ["tau-gamma"] — a GAMMA-style trial loop (exact optimum + linear
      optimum per seeded database) driven once by a [Cost.Cache Seed]
      and once by a [Cost.Cache Frame], one raced rep each; certifies
      bit-identical τ tables (every sub-database cardinality) and
      identical optimum costs.
    - ["tau-thm"] — [Theorems.verify] per seeded database under both
      backends, one raced rep each; certifies identical reports.  Chain-6 databases, like
      ["tau-gamma"]: every mask is α-acyclic.
    - ["tau-thm-clique"] — the same over the 4-clique's six relations,
      whose cyclic masks the frame counter merges.

    Every row is timed alone, one after another, so no row's wall time
    carries a sibling's load.  The frame join's parallel scaling is
    PAR's ({!Par_bench}), over the same {!micro_db}. *)

val micro_db : string -> int -> Mj_relation.Database.t
(** [micro_db shape n]: a 3-relation [shape] ({!Mj_workload.Dbgen.shapes}
    name) of [n] uniform tuples per relation over [max 2 n] values, so
    join outputs stay near [n] rows and a join row measures join
    machinery rather than output explosion.  Deterministic in
    [(shape, n)]; the join-micro rows and PAR's sweep run on it. *)

val run : ?quick:bool -> unit -> Bench_core.leg
(** [quick] (default [false]) trims sizes to CI-smoke scale.  Rows carry
    [seed_ms], [frame_ms] (fastest rep), [seed_value]/[frame_value] and
    the [equal] check, except ["certify"] (its [frame_ms] alone, a
    median); the document's [dict_size] counts the dictionary's values
    of the largest join-micro database. *)

(* Definitional cross-checks for the condition checkers and their
   consumers: C1–C4 re-derived from the raw [Conditions.iter_triples] /
   [iter_pairs] enumerations, the monotone classifiers re-derived from
   step cardinalities, Lemma 1 related to C1 at the data level, the
   lemma transformations checked structurally, and the join-tree C4
   mirrored through [Jointree]'s connectivity predicates. *)

open Mj_relation
open Mj_hypergraph
open Multijoin
open Mj_workload

let qtest name ?(count = 100) gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~name ~count gen prop)

let small_db (shape, n, seed, regime) =
  let rng = Random.State.make [| seed; n; shape; regime; 81 |] in
  let d =
    match shape mod 3 with
    | 0 -> Querygraph.chain n
    | 1 -> Querygraph.star n
    | _ -> Querygraph.random ~extra_edge_prob:0.4 ~rng n
  in
  match regime mod 3 with
  | 0 -> Dbgen.uniform_db ~rng ~rows:4 ~domain:3 d
  | 1 -> Dbgen.skewed_db ~rng ~rows:5 ~domain:3 ~skew:1.2 d
  | _ -> Dbgen.superkey_db ~rng ~rows:3 ~domain:4 d

let small_case =
  QCheck2.Gen.(
    quad (int_range 0 2) (int_range 2 4) (int_range 0 10_000) (int_range 0 2))

let strategy_of db seed =
  let rng = Random.State.make [| seed; 82 |] in
  Enumerate.random_strategy ~rng (Database.schemes db)

(* ------------------------------------------------------------------ *)
(* C1–C4 from the definitional enumerations                             *)
(* ------------------------------------------------------------------ *)

let def_summary db =
  let cache = Cost.Cache.create db in
  let c1 = ref true and c1_strict = ref true in
  Conditions.iter_triples cache (fun w ->
      if w.Conditions.tau_e_e1 > w.Conditions.tau_e_e2 then c1 := false;
      if w.Conditions.tau_e_e1 >= w.Conditions.tau_e_e2 then
        c1_strict := false;
      !c1 || !c1_strict);
  let c2 = ref true and c3 = ref true and c4 = ref true in
  Conditions.iter_pairs cache (fun w ->
      let j = w.Conditions.tau_join in
      if j > w.Conditions.tau_1 && j > w.Conditions.tau_2 then c2 := false;
      if j > w.Conditions.tau_1 || j > w.Conditions.tau_2 then c3 := false;
      if j < w.Conditions.tau_1 || j < w.Conditions.tau_2 then c4 := false;
      !c2 || !c3 || !c4);
  {
    Conditions.c1 = !c1;
    c1_strict = !c1_strict;
    c2 = !c2;
    c3 = !c3;
    c4 = !c4;
  }

let prop_summarize_is_definitional =
  qtest "Conditions.summarize = the literal iter_triples/iter_pairs scan"
    ~count:40 small_case
    (fun case ->
      let db = small_db case in
      Conditions.summarize db = def_summary db)

(* ------------------------------------------------------------------ *)
(* Monotone classifiers from step cardinalities                         *)
(* ------------------------------------------------------------------ *)

let def_decreasing cache s =
  List.for_all
    (fun (d1, d2) ->
      let c = Cost.Cache.card cache (Scheme.Set.union d1 d2) in
      c <= Cost.Cache.card cache d1 && c <= Cost.Cache.card cache d2)
    (Strategy.steps s)

let def_increasing cache s =
  List.for_all
    (fun (d1, d2) ->
      let c = Cost.Cache.card cache (Scheme.Set.union d1 d2) in
      c >= Cost.Cache.card cache d1 && c >= Cost.Cache.card cache d2)
    (Strategy.steps s)

let prop_monotone_classifiers =
  qtest "Monotone.is_monotone_* = step-cardinality definition" ~count:60
    QCheck2.Gen.(pair small_case (int_range 0 10_000))
    (fun (case, sseed) ->
      let db = small_db case in
      let s = strategy_of db sseed in
      let cache = Cost.Cache.create db in
      Monotone.is_monotone_decreasing db s = def_decreasing cache s
      && Monotone.is_monotone_increasing db s = def_increasing cache s)

let prop_optimal_monotone_decreasing =
  qtest "exists_optimal_monotone_decreasing = exhaustive scan" ~count:25
    small_case
    (fun case ->
      let db = small_db case in
      let cache = Cost.Cache.create db in
      let oracle = Cost.Cache.card cache in
      let d = Database.schemes db in
      let taus =
        Enumerate.fold_all d ~init:[] ~f:(fun acc s ->
            (Cost.tau_oracle oracle s, s) :: acc)
      in
      let best = List.fold_left (fun m (t, _) -> min m t) max_int taus in
      let def =
        List.exists (fun (t, s) -> t = best && def_decreasing cache s) taus
      in
      Monotone.exists_optimal_monotone_decreasing db = def)

let prop_cp_free_increasing =
  qtest "all_cp_free_strategies_monotone_increasing = exhaustive scan"
    ~count:25 small_case
    (fun case ->
      let db = small_db case in
      let cache = Cost.Cache.create db in
      let def =
        List.for_all (def_increasing cache)
          (Enumerate.cp_free (Database.schemes db))
      in
      Monotone.all_cp_free_strategies_monotone_increasing db = def)

(* ------------------------------------------------------------------ *)
(* Lemma 1 against C1, at the data level                                *)
(* ------------------------------------------------------------------ *)

let prop_lemma1_vs_c1 =
  qtest "Lemma 1 extends C1: C1 ∧ R_D ≠ ∅ ⇒ lemma1, lemma1 ⇒ C1"
    ~count:30 small_case
    (fun case ->
      let db = small_db case in
      let s = def_summary db in
      let nonempty = not (Relation.is_empty (Database.join_all db)) in
      let l1 = Lemmas.lemma1_holds db in
      let l1s = Lemmas.lemma1_strict_holds db in
      (* lemma 1 quantifies over strictly more configurations than C1,
         so it implies C1; and the paper's Lemma 1 says C1 plus a
         non-empty result forces the extension. *)
      (not l1 || s.Conditions.c1)
      && (not l1s || s.Conditions.c1_strict)
      && ((not (s.Conditions.c1 && nonempty)) || l1)
      && ((not (s.Conditions.c1_strict && nonempty)) || l1s))

let prop_lemma_transforms_preserve_semantics =
  qtest "lemma 2/3 moves keep the result and shrink the component sum"
    ~count:40
    QCheck2.Gen.(pair small_case (int_range 0 10_000))
    (fun (case, sseed) ->
      let db = small_db case in
      let s = strategy_of db sseed in
      let check transform =
        match transform db s with
        | None -> true
        | Some m ->
            Strategy.equal m.Lemmas.before s
            && Strategy.check m.Lemmas.after = Ok ()
            && Scheme.Set.equal
                 (Strategy.schemes m.Lemmas.after)
                 (Strategy.schemes s)
            && Relation.equal
                 (Cost.eval db m.Lemmas.after)
                 (Cost.eval db s)
            && m.Lemmas.tau_before = Cost.tau db s
            && m.Lemmas.tau_after = Cost.tau db m.Lemmas.after
            && m.Lemmas.comp_sum_after < m.Lemmas.comp_sum_before
      in
      check Lemmas.lemma2_transform && check Lemmas.lemma3_transform)

let prop_to_cp_free =
  qtest "to_cp_free: CP-free, same result; never τ-worse under C1 ∧ C2"
    ~count:40
    QCheck2.Gen.(pair small_case (int_range 0 10_000))
    (fun (case, sseed) ->
      let db = small_db case in
      let s = strategy_of db sseed in
      let t = Lemmas.to_cp_free db s in
      let structural =
        Strategy.avoids_cartesian t
        && Scheme.Set.equal (Strategy.schemes t) (Strategy.schemes s)
        && Relation.equal (Cost.eval db t) (Cost.eval db s)
      in
      let sum = Conditions.summarize db in
      structural
      && ((not (sum.Conditions.c1 && sum.Conditions.c2))
         || Cost.tau db t <= Cost.tau db s))

(* ------------------------------------------------------------------ *)
(* Join-tree C4 mirrored through Jointree's predicates                  *)
(* ------------------------------------------------------------------ *)

let def_jt_c4 db =
  let d = Database.schemes db in
  let oracle = Cost.cardinality_oracle db in
  let jt_conn =
    List.filter
      (Jointree.connected_in_some_join_tree d)
      (Hypergraph.subsets d)
  in
  List.for_all
    (fun e1 ->
      List.for_all
        (fun e2 ->
          (not (Scheme.Set.disjoint e1 e2))
          || (not (Jointree.linked_in_join_tree_sense d e1 e2))
          ||
          let j = oracle (Scheme.Set.union e1 e2) in
          j >= oracle e1 && j >= oracle e2)
        jt_conn)
    jt_conn

let acyclic_small_db (shape, n, seed, regime) =
  small_db ((shape mod 2), n, seed, regime)

let prop_jt_c4_definitional =
  qtest "Conditions_jt.holds_c4 = the Jointree-predicate scan" ~count:20
    small_case
    (fun case ->
      let db = acyclic_small_db case in
      Conditions_jt.holds_c4 db = def_jt_c4 db)

let prop_jt_c4_after_reduction =
  (* Section 5's claim: α-acyclic + pairwise consistent ⇒ C4 under the
     join-tree definitions.  Full reduction establishes consistency. *)
  qtest "C4 (join-tree sense) holds after full reduction" ~count:20
    small_case
    (fun case ->
      let db = acyclic_small_db case in
      let reduced = Consistency.semijoin_reduce db in
      Conditions_jt.holds_c4 reduced)

let () =
  Alcotest.run "conditions"
    [
      ("definitional", [ prop_summarize_is_definitional ]);
      ( "monotone",
        [
          prop_monotone_classifiers;
          prop_optimal_monotone_decreasing;
          prop_cp_free_increasing;
        ] );
      ( "lemmas",
        [
          prop_lemma1_vs_c1;
          prop_lemma_transforms_preserve_semantics;
          prop_to_cp_free;
        ] );
      ( "jointree-c4",
        [ prop_jt_c4_definitional; prop_jt_c4_after_reduction ] );
    ]

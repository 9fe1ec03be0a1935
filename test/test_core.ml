(* Tests for the core strategy library: strategy trees, the τ cost,
   transformations, conditions C1–C4, subspace enumeration/counting, exact
   optima, the theorem validators, monotone strategies and set-operation
   strategies.  The paper's Examples 1–5 serve as fixtures, and every
   number the paper states about them is asserted here. *)

open Mj_relation
open Mj_hypergraph
open Multijoin
module Scenarios = Mj_workload.Scenarios
module Dbgen = Mj_workload.Dbgen

let st = Strategy.of_string

let qtest name ?(count = 100) gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~name ~count gen prop)

(* A small random database over a random connected query graph. *)
let gen_random_db =
  let open QCheck2.Gen in
  let* n = int_range 2 5 in
  let* seed = int_range 0 100_000 in
  let rng = Random.State.make [| seed; n |] in
  let d = Querygraph.random ~extra_edge_prob:0.3 ~rng n in
  return (Dbgen.uniform_db ~rng ~rows:4 ~domain:3 d)

let gen_superkey_db =
  let open QCheck2.Gen in
  let* n = int_range 2 5 in
  let* seed = int_range 0 100_000 in
  let rng = Random.State.make [| seed; n; 7 |] in
  let d = Querygraph.random ~extra_edge_prob:0.3 ~rng n in
  return (Dbgen.superkey_db ~rng ~rows:5 ~domain:8 d)

(* ------------------------------------------------------------------ *)
(* Strategy: construction and structure                                 *)
(* ------------------------------------------------------------------ *)

let test_parse_roundtrip () =
  let cases =
    [ "((AB * BC) * CD)"; "(AB * (BC * CD))"; "((AB * BC) * (CD * DE))" ]
  in
  List.iter
    (fun src ->
      Alcotest.(check string) src src (Strategy.to_string (st src)))
    cases

let test_parse_left_assoc () =
  Alcotest.(check string) "left assoc" "((AB * BC) * CD)"
    (Strategy.to_string (st "AB * BC * CD"))

let test_parse_errors () =
  List.iter
    (fun src ->
      match st src with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.failf "parse of %S should fail" src)
    [ ""; "("; "(AB"; "AB *"; "AB BC"; "(AB * AB)"; "a,,b"; "a,a" ]

let test_parse_multi_attribute_schemes () =
  (* A comma-free lowercase token names one attribute; commas list
     attributes explicitly. *)
  let s = st "ck,cname * cname,nk" in
  Alcotest.(check int) "two leaves" 2 (Strategy.size s);
  let leaves = Strategy.leaves s in
  Alcotest.(check int) "two attrs each" 2
    (Attr.Set.cardinal (List.nth leaves 0));
  let single = st "user_id * AB" in
  Alcotest.(check int) "lowercase token is one attribute" 1
    (Attr.Set.cardinal (List.hd (Strategy.leaves single)))

let test_join_disjointness () =
  match Strategy.join (st "AB * BC") (Strategy.leaf (Scheme.of_string "BC")) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "join must reject overlapping children"

let test_left_deep () =
  let s = Strategy.left_deep (List.map Scheme.of_string [ "AB"; "BC"; "CD" ]) in
  Alcotest.(check string) "shape" "((AB * BC) * CD)" (Strategy.to_string s);
  Alcotest.(check bool) "linear" true (Strategy.is_linear s)

let test_size_steps () =
  let s = st "((AB * BC) * (CD * DE))" in
  Alcotest.(check int) "size" 4 (Strategy.size s);
  Alcotest.(check int) "steps" 3 (Strategy.num_steps s);
  Alcotest.(check int) "leaves" 4 (List.length (Strategy.leaves s));
  Alcotest.(check bool) "not linear" false (Strategy.is_linear s);
  (* Post-order: sub-steps before the root step. *)
  let steps = Strategy.steps s in
  let root = List.nth steps 2 in
  Alcotest.(check bool) "root last" true
    (Scheme.Set.equal
       (Scheme.Set.union (fst root) (snd root))
       (Strategy.schemes s))

let test_find_subtree () =
  let s = st "((AB * BC) * CD)" in
  (match Strategy.find_subtree s (Scheme.Set.of_strings [ "AB"; "BC" ]) with
  | Some sub -> Alcotest.(check string) "found" "(AB * BC)" (Strategy.to_string sub)
  | None -> Alcotest.fail "subtree must exist");
  Alcotest.(check bool) "absent" true
    (Strategy.find_subtree s (Scheme.Set.of_strings [ "AB"; "CD" ]) = None)

let test_check_valid () =
  Alcotest.(check bool) "valid" true
    (Strategy.check (st "((AB * BC) * CD)") = Ok ())

let test_equal_commutative () =
  Alcotest.(check bool) "swap at root" true
    (Strategy.equal_commutative (st "AB * BC") (st "BC * AB"));
  Alcotest.(check bool) "swap nested" true
    (Strategy.equal_commutative (st "(AB * BC) * CD") (st "CD * (BC * AB)"));
  Alcotest.(check bool) "different shapes" false
    (Strategy.equal_commutative (st "(AB * BC) * CD") (st "AB * (BC * CD)"))

(* ------------------------------------------------------------------ *)
(* Strategy: Cartesian products and components (paper's examples)       *)
(* ------------------------------------------------------------------ *)

let test_uses_cartesian_paper () =
  (* "the strategy (ABC ⋈ DF) ⋈ BCD uses a Cartesian product" *)
  Alcotest.(check bool) "(ABC*DF)*BCD uses CP" true
    (Strategy.uses_cartesian (st "(ABC * DF) * BCD"));
  Alcotest.(check bool) "(AB*BC) no CP" false
    (Strategy.uses_cartesian (st "AB * BC"))

let test_components_individually_paper () =
  (* "(ABC ⋈ BE) ⋈ DF evaluates the components of {ABC, BE, DF}
     individually, but (ABC ⋈ DF) ⋈ BE does not" *)
  Alcotest.(check bool) "first does" true
    (Strategy.evaluates_components_individually (st "(ABC * BE) * DF"));
  Alcotest.(check bool) "second does not" false
    (Strategy.evaluates_components_individually (st "(ABC * DF) * BE"))

let test_avoids_cartesian_paper () =
  (* "((ABC ⋈ BE) ⋈ (CG ⋈ GH)) ⋈ DF avoids Cartesian products, but
     ((ABC ⋈ CG) ⋈ (BE ⋈ GH)) ⋈ DF does not (although the latter
     evaluates components individually)" *)
  let good = st "((ABC * BE) * (CG * GH)) * DF" in
  let bad = st "((ABC * CG) * (BE * GH)) * DF" in
  Alcotest.(check bool) "good avoids" true (Strategy.avoids_cartesian good);
  Alcotest.(check bool) "bad does not" false (Strategy.avoids_cartesian bad);
  Alcotest.(check bool) "bad still evaluates components individually" true
    (Strategy.evaluates_components_individually bad)

let test_cartesian_count () =
  Alcotest.(check int) "two CPs" 2
    (Strategy.count_cartesian_steps (st "((AB * CD) * EF) * BCE"))

(* ------------------------------------------------------------------ *)
(* Cost: Example 1's numbers                                            *)
(* ------------------------------------------------------------------ *)

let ex1 = Scenarios.example1

let tau_of name =
  Cost.tau ex1 (List.assoc name Scenarios.example1_strategies)

let test_example1_costs () =
  Alcotest.(check int) "tau(S1) = 570" 570 (tau_of "S1");
  Alcotest.(check int) "tau(S2) = 570" 570 (tau_of "S2");
  Alcotest.(check int) "tau(S3) = 549" 549 (tau_of "S3");
  Alcotest.(check int) "tau(S4) = 546" 546 (tau_of "S4")

let test_example1_steps () =
  let s3 = List.assoc "S3" Scenarios.example1_strategies in
  let rows = Cost.step_costs ex1 s3 in
  Alcotest.(check (list int)) "10, 49, 490" [ 10; 49; 490 ]
    (List.map snd rows)

let test_eval_matches_join_all () =
  let s = List.assoc "S4" Scenarios.example1_strategies in
  Alcotest.(check bool) "same result" true
    (Relation.equal (Cost.eval ex1 s) (Database.join_all ex1))

let test_cost_missing_scheme () =
  match Cost.tau ex1 (st "AB * XY") with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "must reject schemes outside the database"

let prop_tau_oracle_consistent =
  qtest "tau equals tau_oracle on the exact oracle" gen_random_db (fun db ->
      let d = Database.schemes db in
      let oracle = Cost.cardinality_oracle db in
      let rng = Random.State.make [| 13 |] in
      let s = Enumerate.random_strategy ~rng d in
      Cost.tau db s = Cost.tau_oracle oracle s)

let prop_eval_order_independent =
  qtest "every strategy evaluates to the same relation" gen_random_db
    (fun db ->
      let d = Database.schemes db in
      let expected = Database.join_all db in
      let rng = Random.State.make [| 17 |] in
      List.for_all
        (fun _ ->
          Relation.equal (Cost.eval db (Enumerate.random_strategy ~rng d)) expected)
        [ 1; 2; 3 ])

(* ------------------------------------------------------------------ *)
(* Transformations                                                      *)
(* ------------------------------------------------------------------ *)

let d_of s = Scheme.Set.of_strings s

let test_pluck () =
  let s = st "((AB * BC) * CD) * DE" in
  let plucked = Transform.pluck s (d_of [ "CD" ]) in
  Alcotest.(check string) "CD gone" "((AB * BC) * DE)"
    (Strategy.to_string plucked);
  Alcotest.(check bool) "still valid" true (Strategy.check plucked = Ok ())

let test_pluck_inner_subtree () =
  let s = st "((AB * BC) * CD) * DE" in
  let plucked = Transform.pluck s (d_of [ "AB"; "BC" ]) in
  Alcotest.(check string) "whole subtree gone" "(CD * DE)"
    (Strategy.to_string plucked)

let test_pluck_root_rejected () =
  let s = st "AB * BC" in
  match Transform.pluck s (d_of [ "AB"; "BC" ]) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "plucking the root must fail"

let test_graft () =
  let s = st "(AB * BC) * CD" in
  let grafted =
    Transform.graft s ~above:(d_of [ "AB"; "BC" ]) (Strategy.leaf (Scheme.of_string "DE"))
  in
  Alcotest.(check string) "grafted above" "(((AB * BC) * DE) * CD)"
    (Strategy.to_string grafted);
  Alcotest.(check bool) "valid" true (Strategy.check grafted = Ok ())

let test_graft_overlap_rejected () =
  let s = st "(AB * BC) * CD" in
  match Transform.graft s ~above:(d_of [ "CD" ]) (st "AB * BC") with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "grafting overlapping schemes must fail"

let test_pluck_graft_inverse () =
  let s = st "((AB * BC) * CD) * DE" in
  let remaining, moved = Transform.extract s (d_of [ "CD" ]) in
  let restored = Transform.graft remaining ~above:(d_of [ "AB"; "BC" ]) moved in
  Alcotest.(check string) "pluck then graft back" "(((AB * BC) * CD) * DE)"
    (Strategy.to_string restored)

let test_transfer () =
  (* The Theorem 1 case-1 move: bring R' next to R''. *)
  let s = st "((AB * EF) * BC) * CD" in
  let moved = Transform.transfer s ~subtree:(d_of [ "EF" ]) ~above:(d_of [ "CD" ]) in
  Alcotest.(check string) "EF moved" "((AB * BC) * (CD * EF))"
    (Strategy.to_string moved);
  Alcotest.(check bool) "valid" true (Strategy.check moved = Ok ())

let test_exchange () =
  (* The Theorem 1 case-2 move: swap R' and R''. *)
  let s = st "((AB * EF) * BC) * CD" in
  let swapped = Transform.exchange s (d_of [ "EF" ]) (d_of [ "CD" ]) in
  Alcotest.(check string) "swapped" "(((AB * CD) * BC) * EF)"
    (Strategy.to_string swapped)

let test_exchange_nested_rejected () =
  let s = st "((AB * EF) * BC) * CD" in
  match Transform.exchange s (d_of [ "AB"; "EF" ]) (d_of [ "EF" ]) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "exchanging nested subtrees must fail"

let test_replace_subtree () =
  let s = st "((AB * BC) * CD)" in
  let replaced =
    Transform.replace_subtree s (d_of [ "AB"; "BC" ]) (st "BC * AB")
  in
  Alcotest.(check string) "replaced" "((BC * AB) * CD)"
    (Strategy.to_string replaced)

let test_replace_subtree_wrong_schemes () =
  let s = st "((AB * BC) * CD)" in
  match Transform.replace_subtree s (d_of [ "AB"; "BC" ]) (st "AB * EF") with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "replacement must evaluate the same schemes"

let prop_transform_preserves_result =
  qtest "pluck+graft preserves the evaluated relation" gen_random_db
    (fun db ->
      let d = Database.schemes db in
      if Scheme.Set.cardinal d < 3 then true
      else begin
        let rng = Random.State.make [| 23 |] in
        let s = Enumerate.random_strategy ~rng d in
        (* Move some leaf next to another leaf. *)
        let leaves = Strategy.leaves s in
        let l1 = List.nth leaves 0 and l2 = List.nth leaves 1 in
        let moved =
          Transform.transfer s
            ~subtree:(Scheme.Set.singleton l1)
            ~above:(Scheme.Set.singleton l2)
        in
        Strategy.check moved = Ok ()
        && Relation.equal (Cost.eval db moved) (Database.join_all db)
      end)

(* ------------------------------------------------------------------ *)
(* Conditions on the paper's examples                                   *)
(* ------------------------------------------------------------------ *)

let test_example1_conditions () =
  let s = Conditions.summarize Scenarios.example1 in
  Alcotest.(check bool) "C1 holds" true s.c1;
  Alcotest.(check bool) "C2 fails" false s.c2

let test_example2_independence () =
  (* Example 2: C1 and C2 are independent. *)
  let a = Conditions.summarize Scenarios.example2_c1_not_c2 in
  Alcotest.(check bool) "ex2a: C1" true a.c1;
  Alcotest.(check bool) "ex2a: not C2" false a.c2;
  let b = Conditions.summarize Scenarios.example2_c2_not_c1 in
  Alcotest.(check bool) "ex2b: C2" true b.c2;
  Alcotest.(check bool) "ex2b: not C1" false b.c1

let test_example2b_witness () =
  (* tau(R'2 ⋈ R'1) = 7 > 6 = tau(R'2 ⋈ R'3) *)
  let witnesses = Conditions.violations_c1 Scenarios.example2_c2_not_c1 in
  Alcotest.(check bool) "witness found" true
    (List.exists
       (fun (w : Conditions.triple_witness) ->
         w.tau_e_e1 = 7 && w.tau_e_e2 = 6)
       witnesses)

let test_example3_conditions () =
  let s = Conditions.summarize Scenarios.example3 in
  Alcotest.(check bool) "C1 holds" true s.c1;
  Alcotest.(check bool) "C1' fails" false s.c1_strict

let test_example4_conditions () =
  let s = Conditions.summarize Scenarios.example4 in
  Alcotest.(check bool) "C2 holds" true s.c2;
  Alcotest.(check bool) "C1 fails" false s.c1

let test_example5_conditions () =
  let s = Conditions.summarize Scenarios.example5 in
  Alcotest.(check bool) "C1 holds" true s.c1;
  Alcotest.(check bool) "C2 holds" true s.c2;
  Alcotest.(check bool) "C3 fails" false s.c3

let test_example5_c3_witness () =
  (* "violates C3 (e.g., tau(CI ⋈ ID) > tau(ID))" *)
  let witnesses = Conditions.violations_c3 Scenarios.example5 in
  Alcotest.(check bool) "CI/ID witness" true
    (List.exists
       (fun (w : Conditions.pair_witness) ->
         (Scheme.Set.equal w.p1 (d_of [ "CI" ]) && Scheme.Set.equal w.p2 (d_of [ "ID" ]))
         || (Scheme.Set.equal w.p1 (d_of [ "ID" ]) && Scheme.Set.equal w.p2 (d_of [ "CI" ])))
       witnesses)

(* All five conditions of Examples 1–5, pinned as the paper's examples
   print them. *)
let test_examples_summaries () =
  List.iter
    (fun (name, db, want) ->
      Alcotest.(check string) name want
        (Format.asprintf "%a" Conditions.pp_summary (Conditions.summarize db)))
    [
      ("example 1", Scenarios.example1, "C1:yes C1':yes C2:no C3:no C4:yes");
      ( "example 2a", Scenarios.example2_c1_not_c2,
        "C1:yes C1':yes C2:no C3:no C4:yes" );
      ( "example 2b", Scenarios.example2_c2_not_c1,
        "C1:no C1':no C2:yes C3:no C4:no" );
      ("example 3", Scenarios.example3, "C1:yes C1':no C2:yes C3:no C4:no");
      ("example 4", Scenarios.example4, "C1:no C1':no C2:yes C3:no C4:no");
      ("example 5", Scenarios.example5, "C1:yes C1':yes C2:yes C3:no C4:no");
    ]

let prop_superkey_implies_c3 =
  qtest "injective data satisfies C3 (superkey joins)" ~count:40
    gen_superkey_db (fun db -> Conditions.holds_c3 db)

let prop_c3_implies_c1 =
  (* Lemma 5 on random databases. *)
  qtest "Lemma 5: C3 implies C1 when R_D nonempty" ~count:40 gen_random_db
    (fun db -> Theorems.lemma5_consistent db)

let prop_c1_strict_implies_c1 =
  qtest "C1' implies C1" ~count:40 gen_random_db (fun db ->
      let s = Conditions.summarize db in
      (not s.c1_strict) || s.c1)

(* ------------------------------------------------------------------ *)
(* Enumeration and counting                                             *)
(* ------------------------------------------------------------------ *)

let test_count_all_formula () =
  (* The introduction: 15 orderings for four relations. *)
  Alcotest.(check int) "k=2" 1 (Enumerate.count_all 2);
  Alcotest.(check int) "k=3" 3 (Enumerate.count_all 3);
  Alcotest.(check int) "k=4" 15 (Enumerate.count_all 4);
  Alcotest.(check int) "k=5" 105 (Enumerate.count_all 5)

let test_count_linear_formula () =
  (* The introduction: 12 linear orderings for four relations. *)
  Alcotest.(check int) "k=3" 3 (Enumerate.count_linear 3);
  Alcotest.(check int) "k=4" 12 (Enumerate.count_linear 4);
  Alcotest.(check int) "k=5" 60 (Enumerate.count_linear 5)

let test_enumeration_matches_counts () =
  let d = Querygraph.chain 4 in
  Alcotest.(check int) "all" 15 (List.length (Enumerate.all d));
  Alcotest.(check int) "linear" 12 (List.length (Enumerate.linear d));
  Alcotest.(check int) "cp-free count matches list" (Enumerate.count_cp_free d)
    (List.length (Enumerate.cp_free d));
  Alcotest.(check int) "linear-cp-free count matches list"
    (Enumerate.count_linear_cp_free d)
    (List.length (Enumerate.linear_cp_free d))

(* The emission order of every subspace, as literals.  The list
   enumerations are the folds collected, so comparing them with the
   folds proves nothing about the order; these pins do. *)
let emission_order_cases =
  [
    ("chain-4", Querygraph.chain 4);
    ("star-4", Querygraph.star 4);
    ("AB,CD,EF", Hypergraph.of_strings [ "AB"; "CD"; "EF" ]);
  ]

let emission_order_subspaces =
  Enumerate.[ All; Linear; Cp_free; Linear_cp_free ]

let emission_order_pins =
  [
    ( "chain-4", "all",
      [
        "(c0,c1 * (c1,c2 * (c2,c3 * c3,c4)))";
        "(c0,c1 * ((c1,c2 * c2,c3) * c3,c4))";
        "(c0,c1 * ((c1,c2 * c3,c4) * c2,c3))";
        "((c0,c1 * c1,c2) * (c2,c3 * c3,c4))";
        "((c0,c1 * c2,c3) * (c1,c2 * c3,c4))";
        "((c0,c1 * (c1,c2 * c2,c3)) * c3,c4)";
        "(((c0,c1 * c1,c2) * c2,c3) * c3,c4)";
        "(((c0,c1 * c2,c3) * c1,c2) * c3,c4)";
        "((c0,c1 * c3,c4) * (c1,c2 * c2,c3))";
        "((c0,c1 * (c1,c2 * c3,c4)) * c2,c3)";
        "(((c0,c1 * c1,c2) * c3,c4) * c2,c3)";
        "(((c0,c1 * c3,c4) * c1,c2) * c2,c3)";
        "((c0,c1 * (c2,c3 * c3,c4)) * c1,c2)";
        "(((c0,c1 * c2,c3) * c3,c4) * c1,c2)";
        "(((c0,c1 * c3,c4) * c2,c3) * c1,c2)";
      ] );
    ( "chain-4", "linear",
      [
        "(((c0,c1 * c1,c2) * c2,c3) * c3,c4)";
        "(((c0,c1 * c1,c2) * c3,c4) * c2,c3)";
        "(((c0,c1 * c2,c3) * c1,c2) * c3,c4)";
        "(((c0,c1 * c2,c3) * c3,c4) * c1,c2)";
        "(((c0,c1 * c3,c4) * c1,c2) * c2,c3)";
        "(((c0,c1 * c3,c4) * c2,c3) * c1,c2)";
        "(((c1,c2 * c2,c3) * c0,c1) * c3,c4)";
        "(((c1,c2 * c2,c3) * c3,c4) * c0,c1)";
        "(((c1,c2 * c3,c4) * c0,c1) * c2,c3)";
        "(((c1,c2 * c3,c4) * c2,c3) * c0,c1)";
        "(((c2,c3 * c3,c4) * c0,c1) * c1,c2)";
        "(((c2,c3 * c3,c4) * c1,c2) * c0,c1)";
      ] );
    ( "chain-4", "cp-free",
      [
        "(c0,c1 * (c1,c2 * (c2,c3 * c3,c4)))";
        "(c0,c1 * ((c1,c2 * c2,c3) * c3,c4))";
        "((c0,c1 * c1,c2) * (c2,c3 * c3,c4))";
        "((c0,c1 * (c1,c2 * c2,c3)) * c3,c4)";
        "(((c0,c1 * c1,c2) * c2,c3) * c3,c4)";
      ] );
    ( "chain-4", "linear-cp-free",
      [
        "(((c0,c1 * c1,c2) * c2,c3) * c3,c4)";
        "(((c1,c2 * c2,c3) * c0,c1) * c3,c4)";
        "(((c1,c2 * c2,c3) * c3,c4) * c0,c1)";
        "(((c2,c3 * c3,c4) * c1,c2) * c0,c1)";
      ] );
    ( "star-4", "all",
      [
        "(s1,s2,s3 * (s1,t1 * (s2,t2 * s3,t3)))";
        "(s1,s2,s3 * ((s1,t1 * s2,t2) * s3,t3))";
        "(s1,s2,s3 * ((s1,t1 * s3,t3) * s2,t2))";
        "((s1,s2,s3 * s1,t1) * (s2,t2 * s3,t3))";
        "((s1,s2,s3 * s2,t2) * (s1,t1 * s3,t3))";
        "((s1,s2,s3 * (s1,t1 * s2,t2)) * s3,t3)";
        "(((s1,s2,s3 * s1,t1) * s2,t2) * s3,t3)";
        "(((s1,s2,s3 * s2,t2) * s1,t1) * s3,t3)";
        "((s1,s2,s3 * s3,t3) * (s1,t1 * s2,t2))";
        "((s1,s2,s3 * (s1,t1 * s3,t3)) * s2,t2)";
        "(((s1,s2,s3 * s1,t1) * s3,t3) * s2,t2)";
        "(((s1,s2,s3 * s3,t3) * s1,t1) * s2,t2)";
        "((s1,s2,s3 * (s2,t2 * s3,t3)) * s1,t1)";
        "(((s1,s2,s3 * s2,t2) * s3,t3) * s1,t1)";
        "(((s1,s2,s3 * s3,t3) * s2,t2) * s1,t1)";
      ] );
    ( "star-4", "linear",
      [
        "(((s1,s2,s3 * s1,t1) * s2,t2) * s3,t3)";
        "(((s1,s2,s3 * s1,t1) * s3,t3) * s2,t2)";
        "(((s1,s2,s3 * s2,t2) * s1,t1) * s3,t3)";
        "(((s1,s2,s3 * s2,t2) * s3,t3) * s1,t1)";
        "(((s1,s2,s3 * s3,t3) * s1,t1) * s2,t2)";
        "(((s1,s2,s3 * s3,t3) * s2,t2) * s1,t1)";
        "(((s1,t1 * s2,t2) * s1,s2,s3) * s3,t3)";
        "(((s1,t1 * s2,t2) * s3,t3) * s1,s2,s3)";
        "(((s1,t1 * s3,t3) * s1,s2,s3) * s2,t2)";
        "(((s1,t1 * s3,t3) * s2,t2) * s1,s2,s3)";
        "(((s2,t2 * s3,t3) * s1,s2,s3) * s1,t1)";
        "(((s2,t2 * s3,t3) * s1,t1) * s1,s2,s3)";
      ] );
    ( "star-4", "cp-free",
      [
        "(((s1,s2,s3 * s1,t1) * s2,t2) * s3,t3)";
        "(((s1,s2,s3 * s2,t2) * s1,t1) * s3,t3)";
        "(((s1,s2,s3 * s1,t1) * s3,t3) * s2,t2)";
        "(((s1,s2,s3 * s3,t3) * s1,t1) * s2,t2)";
        "(((s1,s2,s3 * s2,t2) * s3,t3) * s1,t1)";
        "(((s1,s2,s3 * s3,t3) * s2,t2) * s1,t1)";
      ] );
    ( "star-4", "linear-cp-free",
      [
        "(((s1,s2,s3 * s1,t1) * s2,t2) * s3,t3)";
        "(((s1,s2,s3 * s1,t1) * s3,t3) * s2,t2)";
        "(((s1,s2,s3 * s2,t2) * s1,t1) * s3,t3)";
        "(((s1,s2,s3 * s2,t2) * s3,t3) * s1,t1)";
        "(((s1,s2,s3 * s3,t3) * s1,t1) * s2,t2)";
        "(((s1,s2,s3 * s3,t3) * s2,t2) * s1,t1)";
      ] );
    ( "AB,CD,EF", "all",
      [
        "(AB * (CD * EF))";
        "((AB * CD) * EF)";
        "((AB * EF) * CD)";
      ] );
    ( "AB,CD,EF", "linear",
      [
        "((AB * CD) * EF)";
        "((AB * EF) * CD)";
        "((CD * EF) * AB)";
      ] );
    ( "AB,CD,EF", "cp-free",
      [
        "((EF * AB) * CD)";
        "((CD * AB) * EF)";
        "(AB * (CD * EF))";
      ] );
    ( "AB,CD,EF", "linear-cp-free",
      [
        "((AB * CD) * EF)";
        "((AB * EF) * CD)";
        "((CD * EF) * AB)";
      ] );
  ]

let test_emission_order () =
  let listing enum =
    List.concat_map
      (fun (name, d) ->
        List.map
          (fun subspace ->
            ( name,
              Format.asprintf "%a" Enumerate.pp_subspace subspace,
              List.map Strategy.to_string (enum subspace d) ))
          emission_order_subspaces)
      emission_order_cases
  in
  let folded subspace d =
    List.rev
      (Enumerate.fold_strategies subspace d ~init:[] ~f:(fun acc s -> s :: acc))
  in
  let check = Alcotest.(check (list (triple string string (list string)))) in
  check "enumerate" emission_order_pins (listing Enumerate.enumerate);
  check "fold_strategies" emission_order_pins (listing folded)

let test_chain_cp_free_counts () =
  (* Chain of n: linear cp-free orders = 2^(n-2). *)
  Alcotest.(check int) "chain4 linear cp-free" 4
    (Enumerate.count_linear_cp_free (Querygraph.chain 4));
  Alcotest.(check int) "chain5 linear cp-free" 8
    (Enumerate.count_linear_cp_free (Querygraph.chain 5))

let test_clique_cp_free_equals_all () =
  (* In a clique every partition is linked and connected. *)
  let d = Querygraph.clique 4 in
  Alcotest.(check int) "cp-free = all" 15 (Enumerate.count_cp_free d);
  Alcotest.(check int) "linear cp-free = linear" 12
    (Enumerate.count_linear_cp_free d)

let test_all_strategies_distinct () =
  let d = Querygraph.chain 4 in
  let all = Enumerate.all d in
  let distinct = List.sort_uniq Strategy.compare all in
  Alcotest.(check int) "no duplicates" (List.length all) (List.length distinct)

let test_all_strategies_valid () =
  let d = Querygraph.cycle 4 in
  List.iter
    (fun s ->
      Alcotest.(check bool) "valid" true (Strategy.check s = Ok ());
      Alcotest.(check bool) "right scheme set" true
        (Scheme.Set.equal (Strategy.schemes s) d))
    (Enumerate.all d)

let prop_cp_free_is_filter =
  qtest "cp_free = filter avoids_cartesian over the full space" ~count:40
    QCheck2.Gen.(pair (int_range 2 5) (int_range 0 10_000))
    (fun (n, seed) ->
      let rng = Random.State.make [| seed; n; 3 |] in
      let d = Querygraph.random ~extra_edge_prob:0.3 ~rng n in
      let by_filter =
        List.filter Strategy.avoids_cartesian (Enumerate.all d)
        |> List.sort Strategy.compare
      in
      let direct = List.sort Strategy.compare (Enumerate.cp_free d) in
      List.length by_filter = List.length direct
      && List.for_all2 Strategy.equal by_filter direct)

let prop_linear_is_filter =
  qtest "linear = filter is_linear over the full space" ~count:40
    QCheck2.Gen.(int_range 0 10_000)
    (fun seed ->
      let rng = Random.State.make [| seed; 5 |] in
      let d = Querygraph.random ~extra_edge_prob:0.5 ~rng 4 in
      let by_filter =
        List.filter Strategy.is_linear (Enumerate.all d)
        |> List.sort_uniq Strategy.compare
      in
      (* Enumerated linear strategies are canonical (bottom pair sorted);
         the filtered full space contains the same trees. *)
      List.length by_filter = List.length (Enumerate.linear d))

let test_random_strategy_valid () =
  let rng = Random.State.make [| 5 |] in
  let d = Querygraph.clique 6 in
  for _ = 1 to 20 do
    let s = Enumerate.random_strategy ~rng d in
    Alcotest.(check bool) "valid" true (Strategy.check s = Ok ());
    Alcotest.(check int) "size" 6 (Strategy.size s)
  done

(* ------------------------------------------------------------------ *)
(* Exact optima                                                         *)
(* ------------------------------------------------------------------ *)

let cost_opt ?subspace db =
  (Optimal.optimum_exn ?subspace db).cost

let test_example1_optimum () =
  (* "the τ-optimum strategy does not avoid Cartesian products" *)
  Alcotest.(check int) "global optimum 546" 546 (cost_opt ex1);
  Alcotest.(check int) "cp-free optimum 549" 549
    (cost_opt ~subspace:Enumerate.Cp_free ex1);
  let best = Optimal.optimum_exn ex1 in
  Alcotest.(check bool) "optimum uses CP" true
    (Strategy.uses_cartesian best.strategy)

let test_example4_optimum () =
  let db = Scenarios.example4 in
  Alcotest.(check int) "optimum 11" 11 (cost_opt db);
  let s3 = List.assoc "S3" Scenarios.example4_strategies in
  Alcotest.(check int) "S3 is it" 11 (Cost.tau db s3);
  Alcotest.(check bool) "optimum uses CP" true
    (Strategy.uses_cartesian (Optimal.optimum_exn db).strategy);
  Alcotest.(check int) "cp-free optimum is S2's 12" 12
    (cost_opt ~subspace:Enumerate.Cp_free db)

let test_example4_strategy_costs () =
  let db = Scenarios.example4 in
  let costs =
    List.map (fun (n, s) -> (n, Cost.tau db s)) Scenarios.example4_strategies
  in
  Alcotest.(check (list (pair string int)))
    "paper's 14/12/11"
    [ ("S1", 14); ("S2", 12); ("S3", 11) ]
    costs

let test_example3_all_optimal () =
  let db = Scenarios.example3 in
  let optima = Optimal.all_optima db in
  (* Three relations: all three strategies exist and all are optimal. *)
  Alcotest.(check int) "three optima" 3 (List.length optima);
  Alcotest.(check bool) "one of them uses a CP" true
    (List.exists
       (fun (r : Optimal.result) -> Strategy.uses_cartesian r.strategy)
       optima)

let test_example5_optimum () =
  let db = Scenarios.example5 in
  let optima = Optimal.all_optima db in
  Alcotest.(check int) "unique optimum" 1 (List.length optima);
  let best = List.hd optima in
  Alcotest.(check bool) "it is (MS*SC)*(CI*ID)" true
    (Strategy.equal_commutative best.strategy Scenarios.example5_optimum);
  Alcotest.(check bool) "bushy" false (Strategy.is_linear best.strategy);
  Alcotest.(check bool) "no CP" false (Strategy.uses_cartesian best.strategy);
  (* The best linear strategy is strictly worse. *)
  Alcotest.(check bool) "linear worse" true
    (cost_opt ~subspace:Enumerate.Linear db > best.cost)

let prop_dp_matches_enumeration =
  qtest "DP optimum = enumerated minimum (all subspaces)" ~count:30
    gen_random_db (fun db ->
      let d = Database.schemes db in
      let oracle = Cost.cardinality_oracle db in
      List.for_all
        (fun subspace ->
          let dp = Optimal.optimum ~subspace db in
          let brute =
            match Enumerate.enumerate subspace d with
            | [] -> None
            | ss ->
                Some
                  (List.fold_left
                     (fun m s -> min m (Cost.tau_oracle oracle s))
                     max_int ss)
          in
          Option.map (fun (r : Optimal.result) -> r.cost) dp = brute)
        [ Enumerate.All; Enumerate.Linear; Enumerate.Cp_free;
          Enumerate.Linear_cp_free ])

let prop_optimum_strategy_cost_consistent =
  qtest "reported cost matches the strategy's tau" ~count:40 gen_random_db
    (fun db ->
      let r = Optimal.optimum_exn db in
      Cost.tau db r.strategy = r.cost)

let prop_subspace_costs_nested =
  qtest "subspace minima dominate the global minimum" ~count:40 gen_random_db
    (fun db ->
      let c_all = cost_opt db in
      c_all <= cost_opt ~subspace:Enumerate.Linear db
      && c_all <= cost_opt ~subspace:Enumerate.Cp_free db)

(* ------------------------------------------------------------------ *)
(* Theorems                                                             *)
(* ------------------------------------------------------------------ *)

let test_theorem_reports_examples () =
  (* Example 3: C1' fails and indeed an optimal linear strategy uses a
     CP — Theorem 1 is vacuous there, and its conclusion really fails. *)
  let r3 = Theorems.verify Scenarios.example3 in
  (match r3.theorem1 with
  | Theorems.Vacuous _ -> ()
  | _ -> Alcotest.fail "theorem 1 should be vacuous on example 3");
  Alcotest.(check bool) "conclusion fails" false r3.theorem1_conclusion;
  (* Example 4: C1 fails; Theorem 2 vacuous; conclusion fails. *)
  let r4 = Theorems.verify Scenarios.example4 in
  (match r4.theorem2 with
  | Theorems.Vacuous _ -> ()
  | _ -> Alcotest.fail "theorem 2 should be vacuous on example 4");
  Alcotest.(check bool) "cp-free misses optimum" false r4.theorem2_conclusion;
  (* Example 5: C3 fails; Theorem 3 vacuous; conclusion fails. *)
  let r5 = Theorems.verify Scenarios.example5 in
  (match r5.theorem3 with
  | Theorems.Vacuous _ -> ()
  | _ -> Alcotest.fail "theorem 3 should be vacuous on example 5");
  Alcotest.(check bool) "linear-cp-free misses optimum" false
    r5.theorem3_conclusion

let never_refuted (r : Theorems.report) =
  r.theorem1 <> Theorems.Refuted
  && r.theorem2 <> Theorems.Refuted
  && r.theorem3 <> Theorems.Refuted

let prop_theorems_never_refuted_random =
  qtest "theorems never refuted on random databases" ~count:60 gen_random_db
    (fun db -> never_refuted (Theorems.verify db))

let prop_theorems_hold_on_superkey_dbs =
  qtest "superkey databases: theorems 2-3 hold; theorem 1 never refuted"
    ~count:30 gen_superkey_db (fun db ->
      let r = Theorems.verify db in
      (* C3 holds by construction, guaranteeing C1 and C2 — so Theorems 2
         and 3 apply and must hold.  Theorem 1 needs the STRICT C1',
         which injective data does not guarantee (join sizes can tie), so
         it may legitimately be vacuous — but only with C1' as the failed
         hypothesis, and never refuted. *)
      (not r.connected)
      || (r.theorem2 = Theorems.Holds
         && r.theorem3 = Theorems.Holds
         &&
         match r.theorem1 with
         | Theorems.Holds -> true
         | Theorems.Vacuous why -> why = "C1' fails"
         | Theorems.Refuted -> false))

let test_example_reports_never_refuted () =
  List.iter
    (fun (name, db) ->
      let r = Theorems.verify db in
      Alcotest.(check bool) (name ^ " never refuted") true (never_refuted r))
    Scenarios.all

(* Theorem 1's DP decision and the cache's product rule, against the
   enumeration and the materialized joins they replace.  The databases
   reach 7 relations; a third drop one scheme of a larger graph, which
   often leaves D unconnected, and some have an empty relation. *)
let gen_theorem_db =
  let open QCheck2.Gen in
  let* n = int_range 2 7 in
  let* kind = int_range 0 2 in
  let* regime = int_range 0 2 in
  let* empty = int_range 0 5 in
  let* seed = int_range 0 100_000 in
  let rng = Random.State.make [| seed; n; 13 |] in
  let d =
    match kind with
    | 0 -> Querygraph.random ~extra_edge_prob:0.3 ~rng n
    | 1 ->
        let d = Querygraph.random ~extra_edge_prob:0.1 ~rng (n + 1) in
        Scheme.Set.remove
          (List.nth (Scheme.Set.elements d) (Random.State.int rng (n + 1)))
          d
    | _ ->
        let d = Querygraph.chain (n + 1) in
        Scheme.Set.remove
          (List.nth (Scheme.Set.elements d) (1 + Random.State.int rng n))
          d
  in
  let rows = 3 + Random.State.int rng 2 in
  let db =
    match regime with
    | 0 -> Dbgen.superkey_db ~rng ~rows ~domain:(rows + 4) d
    | 1 -> Dbgen.uniform_db ~rng ~rows ~domain:3 d
    | _ -> Dbgen.skewed_db ~rng ~rows ~domain:4 ~skew:1.2 d
  in
  return
    (if empty = 0 then
       Database.replace db (Relation.empty (Scheme.Set.min_elt d))
     else db)

(* The mask decision behind [holds_*] against the first witness of the
   enumeration behind [violations_*]. *)
let prop_holds_is_no_violation =
  qtest "holds_cX db = (violations_cX ~limit:1 db = [])" ~count:60
    gen_theorem_db (fun db ->
      Conditions.holds_c1 db = (Conditions.violations_c1 ~limit:1 db = [])
      && Conditions.holds_c1_strict db
         = (Conditions.violations_c1_strict ~limit:1 db = [])
      && Conditions.holds_c3 db = (Conditions.violations_c3 ~limit:1 db = [])
      && Conditions.holds_c4 db = (Conditions.violations_c4 ~limit:1 db = []))

let theorem1_by_enumeration cache =
  List.for_all
    (fun (r : Optimal.result) -> not (Strategy.uses_cartesian r.strategy))
    (Optimal.all_optima_cached ~subspace:Enumerate.Linear cache)

let prop_theorem1_dp_matches_enumeration =
  qtest "theorem 1: the linear DP decides as the enumeration" ~count:60
    gen_theorem_db (fun db ->
      let cache = Cost.Cache.create db in
      Optimal.linear_optima_cp_free cache = theorem1_by_enumeration cache)

let test_theorem1_dp_example3 () =
  (* Three optimal linear strategies, one of them with a CP. *)
  let cache = Cost.Cache.create Scenarios.example3 in
  Alcotest.(check int) "three optima" 3
    (List.length (Optimal.all_optima_cached ~subspace:Enumerate.Linear cache));
  Alcotest.(check bool) "enumeration" false (theorem1_by_enumeration cache);
  Alcotest.(check bool) "DP" false (Optimal.linear_optima_cp_free cache)

let cache_matches_joins db =
  let u = Bitdb.make (Database.schemes db) in
  List.for_all
    (fun backend ->
      let cache = Cost.Cache.create ~backend db in
      let ok = ref true in
      for m = 1 to Bitdb.full u do
        let joined =
          Database.join_all (Database.restrict db (Bitdb.set_of_mask u m))
        in
        if Cost.Cache.card_mask cache m <> Relation.cardinality joined then
          ok := false
      done;
      !ok)
    Cost.Cache.[ Seed; Frame ]

let prop_cache_matches_joins =
  qtest "cache: every mask's cardinality is its materialized join" ~count:40
    gen_theorem_db cache_matches_joins

(* The shared τ cache's traffic on one verify: every hit is a
   sub-database cardinality the conditions, the four optimum DPs and
   Theorem 1's decision did not recount.  Exact counts, so a lost memo
   (or a new recount) shows as a diff. *)
let test_verify_cache_traffic () =
  let rng = Random.State.make [| 1; 1990 |] in
  let db = Dbgen.uniform_db ~rng ~rows:5 ~domain:3 (Querygraph.chain 5) in
  let obs = Mj_obs.Obs.make () in
  let (_ : Theorems.report) = Theorems.verify ~obs db in
  let counters = Mj_obs.Obs.counters obs in
  Alcotest.(check (list (pair string int)))
    "cost.cache_hits / cost.cache_misses"
    [ ("cost.cache_hits", 120); ("cost.cache_misses", 31) ]
    (List.map
       (fun name -> (name, Option.value ~default:0 (List.assoc_opt name counters)))
       [ "cost.cache_hits"; "cost.cache_misses" ])

(* The minor words of one warm [Theorems.verify ~backend:Frame] on a
   cyclic database of the tau-sweep benchmark (seed 3, database 4: six
   relations over a random query graph with extra edges, uniform, 3
   values), after a first verify.  Its cyclic masks count by merges,
   so no cache miss joins rows. *)
let test_verify_allocation () =
  let rng = Random.State.make [| 3; 4 |] in
  let rows = 5 + Random.State.int rng 4 in
  let d = Querygraph.random ~extra_edge_prob:0.3 ~rng 6 in
  let db = Dbgen.uniform_db ~rng ~rows ~domain:3 d in
  Alcotest.(check bool) "cyclic" false (Gyo.is_alpha_acyclic d);
  let warm = Theorems.verify ~backend:Cost.Cache.Frame db in
  let before = Gc.minor_words () in
  let report = Theorems.verify ~backend:Cost.Cache.Frame db in
  let words = Gc.minor_words () -. before in
  Alcotest.(check bool) "same report" true (warm = report);
  Alcotest.(check (float 0.)) "minor words" 34461. words

let test_cache_product_rule () =
  (* D = {AB, BC, DE} is unconnected; emptying DE empties every mask
     that holds it, and the product stops there. *)
  let db =
    Database.of_rows
      [
        ("AB", [ [ Value.Int 1; Value.Int 2 ]; [ Value.Int 3; Value.Int 4 ] ]);
        ("BC", [ [ Value.Int 2; Value.Int 5 ]; [ Value.Int 2; Value.Int 6 ] ]);
        ("DE", [ [ Value.Int 7; Value.Int 8 ]; [ Value.Int 9; Value.Int 8 ] ]);
      ]
  in
  Alcotest.(check bool) "unconnected" false
    (Hypergraph.connected (Database.schemes db));
  Alcotest.(check bool) "unconnected D" true (cache_matches_joins db);
  let de = Scheme.of_string "DE" in
  let emptied = Database.replace db (Relation.empty de) in
  Alcotest.(check bool) "a zero-row relation" true (cache_matches_joins emptied);
  let cache = Cost.Cache.create db in
  Alcotest.(check int) "R_D is the product" 4
    (Cost.Cache.card_mask cache (Bitdb.full (Cost.Cache.universe cache)))

(* ------------------------------------------------------------------ *)
(* Monotone strategies                                                  *)
(* ------------------------------------------------------------------ *)

let test_monotone_basic () =
  let db = Scenarios.example4 in
  let s3 = List.assoc "S3" Scenarios.example4_strategies in
  (* (GS*CL) grows from 3 and 2 to 6: not monotone decreasing. *)
  Alcotest.(check bool) "not decreasing" false
    (Monotone.is_monotone_decreasing db s3)

let prop_superkey_monotone_decreasing_optimum =
  qtest "C3 databases admit a monotone-decreasing linear optimum" ~count:20
    gen_superkey_db (fun db ->
      (not (Hypergraph.connected (Database.schemes db)))
      || Monotone.exists_optimal_linear_monotone_decreasing db)

let prop_consistent_acyclic_monotone_increasing =
  qtest "gamma-acyclic consistent: every cp-free strategy is monotone increasing"
    ~count:20
    QCheck2.Gen.(pair (int_range 3 5) (int_range 0 10_000))
    (fun (n, seed) ->
      let rng = Random.State.make [| seed; n; 11 |] in
      let d = Querygraph.chain n in
      let db = Dbgen.consistent_acyclic_db ~rng ~rows:5 ~domain:4 d in
      Monotone.all_cp_free_strategies_monotone_increasing db)

(* ------------------------------------------------------------------ *)
(* Set operations (Section 5)                                           *)
(* ------------------------------------------------------------------ *)

let gen_family =
  let open QCheck2.Gen in
  let* k = int_range 2 5 in
  let* seed = int_range 0 100_000 in
  let rng = Random.State.make [| seed; k; 19 |] in
  let family =
    List.init k (fun idx ->
        let size = 1 + Random.State.int rng 8 in
        (* Overlapping ranges so intersections are non-trivial. *)
        ( Printf.sprintf "X%d" idx,
          List.init size (fun j -> (j + Random.State.int rng 3) mod 10) ))
  in
  return (Setops.of_ints family)

let test_setops_tau () =
  let family = Setops.of_ints [ ("A", [ 1; 2; 3 ]); ("B", [ 2; 3 ]); ("C", [ 3 ]) ] in
  let t = Setops.left_deep [ "A"; "B"; "C" ] in
  (* A∩B = {2,3} (2), then ∩C = {3} (1): tau = 3. *)
  Alcotest.(check int) "intersection tau" 3 (Setops.tau Setops.Inter family t);
  (* A∪B = 3, ∪C = 3: tau = 6. *)
  Alcotest.(check int) "union tau" 6 (Setops.tau Setops.Union family t)

let test_setops_ascending () =
  let family = Setops.of_ints [ ("A", [ 1; 2; 3 ]); ("B", [ 2; 3 ]); ("C", [ 3 ]) ] in
  let t = Setops.ascending_linear family in
  (* Ascending: C, B, A. *)
  Alcotest.(check int) "tau" 2 (Setops.tau Setops.Inter family t)

let test_setops_all_trees_count () =
  Alcotest.(check int) "3 sets: 3 trees" 3
    (List.length (Setops.all_trees [ "A"; "B"; "C" ]));
  Alcotest.(check int) "4 sets: 15 trees" 15
    (List.length (Setops.all_trees [ "A"; "B"; "C"; "D" ]))

let prop_intersection_linear_optimal =
  (* Theorem 3 applied to intersections: some linear order is optimal. *)
  qtest "intersection: best linear = global optimum" gen_family (fun family ->
      let _, best = Setops.optimum Setops.Inter family in
      let _, best_linear = Setops.optimum_linear Setops.Inter family in
      best = best_linear)

let prop_union_monotone_increasing =
  (* With ⋈ := ∪, C4 holds: every step's result is at least as large as
     its children. *)
  qtest "union steps are monotone increasing" gen_family (fun family ->
      let names = List.map fst family in
      List.for_all
        (fun t ->
          let rec check = function
            | Setops.Leaf _ -> true
            | Setops.Node (l, r) as node ->
                let size tr =
                  Setops.Vset.cardinal (Setops.eval Setops.Union family tr)
                in
                size node >= size l && size node >= size r && check l && check r
          in
          check t)
        (Setops.all_trees names))

let prop_optimum_beats_every_tree =
  qtest "setops DP optimum is a true minimum" gen_family (fun family ->
      let names = List.map fst family in
      let _, best = Setops.optimum Setops.Inter family in
      List.for_all
        (fun t -> Setops.tau Setops.Inter family t >= best)
        (Setops.all_trees names))

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "multijoin-core"
    [
      ( "strategy-construction",
        [
          Alcotest.test_case "parse roundtrip" `Quick test_parse_roundtrip;
          Alcotest.test_case "parse left assoc" `Quick test_parse_left_assoc;
          Alcotest.test_case "parse errors" `Quick test_parse_errors;
          Alcotest.test_case "multi-attribute schemes" `Quick
            test_parse_multi_attribute_schemes;
          Alcotest.test_case "join disjointness" `Quick test_join_disjointness;
          Alcotest.test_case "left_deep" `Quick test_left_deep;
          Alcotest.test_case "size/steps" `Quick test_size_steps;
          Alcotest.test_case "find_subtree" `Quick test_find_subtree;
          Alcotest.test_case "check" `Quick test_check_valid;
          Alcotest.test_case "equal_commutative" `Quick test_equal_commutative;
        ] );
      ( "strategy-cartesian",
        [
          Alcotest.test_case "uses CP (paper)" `Quick test_uses_cartesian_paper;
          Alcotest.test_case "components individually (paper)" `Quick
            test_components_individually_paper;
          Alcotest.test_case "avoids CP (paper)" `Quick
            test_avoids_cartesian_paper;
          Alcotest.test_case "CP count" `Quick test_cartesian_count;
        ] );
      ( "cost",
        [
          Alcotest.test_case "example 1 costs" `Quick test_example1_costs;
          Alcotest.test_case "example 1 step costs" `Quick test_example1_steps;
          Alcotest.test_case "eval = join_all" `Quick test_eval_matches_join_all;
          Alcotest.test_case "missing scheme" `Quick test_cost_missing_scheme;
          prop_tau_oracle_consistent;
          prop_eval_order_independent;
        ] );
      ( "transform",
        [
          Alcotest.test_case "pluck leaf" `Quick test_pluck;
          Alcotest.test_case "pluck inner" `Quick test_pluck_inner_subtree;
          Alcotest.test_case "pluck root rejected" `Quick
            test_pluck_root_rejected;
          Alcotest.test_case "graft" `Quick test_graft;
          Alcotest.test_case "graft overlap rejected" `Quick
            test_graft_overlap_rejected;
          Alcotest.test_case "pluck/graft inverse" `Quick
            test_pluck_graft_inverse;
          Alcotest.test_case "transfer" `Quick test_transfer;
          Alcotest.test_case "exchange" `Quick test_exchange;
          Alcotest.test_case "exchange nested rejected" `Quick
            test_exchange_nested_rejected;
          Alcotest.test_case "replace subtree" `Quick test_replace_subtree;
          Alcotest.test_case "replace wrong schemes" `Quick
            test_replace_subtree_wrong_schemes;
          prop_transform_preserves_result;
        ] );
      ( "conditions",
        [
          Alcotest.test_case "example 1" `Quick test_example1_conditions;
          Alcotest.test_case "example 2 independence" `Quick
            test_example2_independence;
          Alcotest.test_case "example 2b witness" `Quick test_example2b_witness;
          Alcotest.test_case "example 3" `Quick test_example3_conditions;
          Alcotest.test_case "example 4" `Quick test_example4_conditions;
          Alcotest.test_case "example 5" `Quick test_example5_conditions;
          Alcotest.test_case "example 5 C3 witness" `Quick
            test_example5_c3_witness;
          Alcotest.test_case "examples 1-5 summaries" `Quick
            test_examples_summaries;
          prop_holds_is_no_violation;
          prop_superkey_implies_c3;
          prop_c3_implies_c1;
          prop_c1_strict_implies_c1;
        ] );
      ( "enumerate",
        [
          Alcotest.test_case "count_all formula" `Quick test_count_all_formula;
          Alcotest.test_case "count_linear formula" `Quick
            test_count_linear_formula;
          Alcotest.test_case "enumeration matches counts" `Quick
            test_enumeration_matches_counts;
          Alcotest.test_case "chain cp-free counts" `Quick
            test_chain_cp_free_counts;
          Alcotest.test_case "emission order pinned" `Quick
            test_emission_order;
          Alcotest.test_case "clique cp-free = all" `Quick
            test_clique_cp_free_equals_all;
          Alcotest.test_case "no duplicates" `Quick test_all_strategies_distinct;
          Alcotest.test_case "all valid" `Quick test_all_strategies_valid;
          Alcotest.test_case "random strategy valid" `Quick
            test_random_strategy_valid;
          prop_cp_free_is_filter;
          prop_linear_is_filter;
        ] );
      ( "optimal",
        [
          Alcotest.test_case "example 1 optimum" `Quick test_example1_optimum;
          Alcotest.test_case "example 4 optimum" `Quick test_example4_optimum;
          Alcotest.test_case "example 4 strategy costs" `Quick
            test_example4_strategy_costs;
          Alcotest.test_case "example 3 all optimal" `Quick
            test_example3_all_optimal;
          Alcotest.test_case "example 5 optimum" `Quick test_example5_optimum;
          prop_dp_matches_enumeration;
          prop_optimum_strategy_cost_consistent;
          prop_subspace_costs_nested;
        ] );
      ( "theorems",
        [
          Alcotest.test_case "example reports" `Quick
            test_theorem_reports_examples;
          Alcotest.test_case "examples never refuted" `Quick
            test_example_reports_never_refuted;
          prop_theorems_never_refuted_random;
          prop_theorems_hold_on_superkey_dbs;
          Alcotest.test_case "theorem 1 DP on example 3" `Quick
            test_theorem1_dp_example3;
          prop_theorem1_dp_matches_enumeration;
          Alcotest.test_case "cache product rule" `Quick
            test_cache_product_rule;
          Alcotest.test_case "verify cache traffic" `Quick
            test_verify_cache_traffic;
          Alcotest.test_case "verify allocation" `Quick
            test_verify_allocation;
          prop_cache_matches_joins;
        ] );
      ( "monotone",
        [
          Alcotest.test_case "basic" `Quick test_monotone_basic;
          prop_superkey_monotone_decreasing_optimum;
          prop_consistent_acyclic_monotone_increasing;
        ] );
      ( "setops",
        [
          Alcotest.test_case "tau" `Quick test_setops_tau;
          Alcotest.test_case "ascending linear" `Quick test_setops_ascending;
          Alcotest.test_case "all trees count" `Quick
            test_setops_all_trees_count;
          prop_intersection_linear_optimal;
          prop_union_monotone_increasing;
          prop_optimum_beats_every_tree;
        ] );
    ]

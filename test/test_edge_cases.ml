(* Edge-case and failure-injection coverage: empty states, empty joins,
   guard rails on the exponential helpers, printing, and the behaviour of
   the theory stack when R_D = ∅ (where the paper's theorems are
   explicitly vacuous). *)

open Mj_relation
open Mj_hypergraph
open Multijoin

let i = Value.int

(* ------------------------------------------------------------------ *)
(* Empty states and empty joins                                         *)
(* ------------------------------------------------------------------ *)

let empty_join_db =
  (* AB and BC share no B values: R_D = ∅. *)
  Database.of_rows
    [ ("AB", [ [ i 1; i 1 ] ]); ("BC", [ [ i 2; i 9 ] ]) ]

let test_empty_join_costs () =
  let s = Strategy.of_string "AB * BC" in
  Alcotest.(check int) "tau counts the empty result as 0" 0
    (Cost.tau empty_join_db s);
  Alcotest.(check bool) "eval is empty" true
    (Relation.is_empty (Cost.eval empty_join_db s))

let test_empty_join_theorems_vacuous () =
  let r = Theorems.verify empty_join_db in
  Alcotest.(check bool) "R_D empty detected" false r.nonempty_result;
  List.iter
    (fun status ->
      match status with
      | Theorems.Vacuous _ -> ()
      | Theorems.Holds | Theorems.Refuted ->
          Alcotest.fail "theorems must be vacuous when R_D is empty")
    [ r.theorem1; r.theorem2; r.theorem3 ]

let test_empty_relation_in_database () =
  let db =
    Database.of_relations
      [ Relation.of_rows "AB" [ [ i 1; i 2 ] ]; Relation.empty (Scheme.of_string "BC") ]
  in
  Alcotest.(check int) "join with empty state" 0
    (Relation.cardinality (Database.join_all db));
  (* The optimum exists and costs 0 at every step. *)
  let best = Optimal.optimum_exn db in
  Alcotest.(check int) "zero cost" 0 best.cost

let test_engine_on_empty_states () =
  let db =
    Database.of_relations
      [ Relation.empty (Scheme.of_string "AB"); Relation.empty (Scheme.of_string "BC") ]
  in
  let plan = Mj_engine.Physical.of_strategy (Strategy.of_string "AB * BC") in
  let result, stats = Mj_engine.Exec.execute db plan in
  Alcotest.(check bool) "empty result" true (Relation.is_empty result);
  Alcotest.(check int) "nothing generated" 0 stats.Mj_engine.Exec.tuples_generated

let test_pipeline_on_empty_join () =
  let s = Strategy.of_string "AB * BC" in
  let result, stats = Mj_engine.Exec.execute_pipelined empty_join_db s in
  Alcotest.(check bool) "empty" true (Relation.is_empty result);
  Alcotest.(check (list int)) "zero per stage" [ 0 ]
    stats.Mj_engine.Exec.emitted_per_stage

(* ------------------------------------------------------------------ *)
(* Single-relation databases                                            *)
(* ------------------------------------------------------------------ *)

let singleton_db = Database.of_rows [ ("AB", [ [ i 1; i 2 ]; [ i 3; i 4 ] ]) ]

let test_trivial_strategy () =
  let best = Optimal.optimum_exn singleton_db in
  Alcotest.(check bool) "trivial" true (Strategy.is_trivial best.strategy);
  Alcotest.(check int) "free" 0 best.cost;
  Alcotest.(check int) "one strategy in every subspace" 1
    (List.length (Enumerate.all (Database.schemes singleton_db)))

let test_trivial_conditions () =
  (* No disjoint subset pairs exist: all conditions hold vacuously. *)
  let s = Conditions.summarize singleton_db in
  Alcotest.(check bool) "all vacuous-true" true
    (s.c1 && s.c1_strict && s.c2 && s.c3 && s.c4)

(* ------------------------------------------------------------------ *)
(* Guard rails                                                          *)
(* ------------------------------------------------------------------ *)

let test_subsets_guard () =
  let attrs = List.init 21 (fun k -> Printf.sprintf "a%d" k) in
  let d =
    Scheme.Set.of_list
      (List.map (fun a -> Attr.Set.of_list [ Attr.make a; Attr.make "x" ]) attrs)
  in
  match Hypergraph.subsets d with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "subset enumeration must refuse 21 relations"

let test_jointree_guard () =
  let d = Mj_hypergraph.Querygraph.chain 9 in
  match Jointree.all_join_trees d with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "join-tree enumeration must refuse 9 relations"

let test_setops_guard () =
  let family =
    Setops.of_ints (List.init 16 (fun k -> (Printf.sprintf "X%d" k, [ k ])))
  in
  match Setops.optimum Setops.Inter family with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "setops DP must refuse 16 sets"

let test_dp_guard () =
  let d = Mj_hypergraph.Querygraph.chain 23 in
  let oracle _ = 1 in
  let refuses name plan =
    Alcotest.check_raises name
      (Invalid_argument "subset DP: too many relations (max 22)") (fun () ->
        ignore (plan ()))
  in
  refuses "dpsize" (fun () -> Mj_optimizer.Dpsize.plan ~oracle d);
  refuses "dpsub" (fun () -> Mj_optimizer.Dpsub.plan ~oracle d);
  refuses "dpccp" (fun () -> Mj_optimizer.Dpccp.plan ~oracle d);
  refuses "selinger" (fun () -> Mj_optimizer.Selinger.plan ~oracle d)

(* ------------------------------------------------------------------ *)
(* Printing                                                             *)
(* ------------------------------------------------------------------ *)

let test_relation_pp_table () =
  let r = Relation.of_rows "AB" [ [ i 1; Value.str "hello" ] ] in
  let printed = Relation.to_string r in
  let contains needle hay =
    let nl = String.length needle and hl = String.length hay in
    let rec scan k = k + nl <= hl && (String.sub hay k nl = needle || scan (k + 1)) in
    scan 0
  in
  Alcotest.(check bool) "header present" true (contains "| A | B" printed);
  Alcotest.(check bool) "value present" true (contains "hello" printed)

let test_database_pp_brief () =
  Alcotest.(check string) "brief" "{AB(2)}"
    (Format.asprintf "%a" Database.pp_brief singleton_db)

let test_condition_witness_pp () =
  let ws = Conditions.violations_c1 ~limit:1 Mj_workload.Scenarios.example4 in
  match ws with
  | w :: _ ->
      let s = Format.asprintf "%a" Conditions.pp_triple_witness w in
      Alcotest.(check bool) "non-empty rendering" true (String.length s > 10)
  | [] -> Alcotest.fail "example 4 must have a C1 violation"

let test_status_pp () =
  Alcotest.(check string) "holds" "holds"
    (Format.asprintf "%a" Theorems.pp_status Theorems.Holds);
  Alcotest.(check string) "vacuous" "vacuous (C1 fails)"
    (Format.asprintf "%a" Theorems.pp_status (Theorems.Vacuous "C1 fails"))

(* ------------------------------------------------------------------ *)
(* Oracle failure injection                                             *)
(* ------------------------------------------------------------------ *)

exception Boom

let test_oracle_exception_propagates () =
  let d = Mj_hypergraph.Querygraph.chain 3 in
  let oracle _ = raise Boom in
  (match Optimal.optimum_with_oracle ~oracle d with
  | exception Boom -> ()
  | _ -> Alcotest.fail "oracle exceptions must not be swallowed");
  match Mj_optimizer.Dpccp.plan ~oracle d with
  | exception Boom -> ()
  | _ -> Alcotest.fail "oracle exceptions must not be swallowed (dpccp)"

let test_map_states_scheme_guard () =
  match
    Database.map_states
      (fun r -> Relation.rename r [ (Attr.make "A", Attr.make "Z") ])
      singleton_db
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "scheme-changing map_states must be rejected"

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "mj_edge_cases"
    [
      ( "empty",
        [
          Alcotest.test_case "empty join costs" `Quick test_empty_join_costs;
          Alcotest.test_case "theorems vacuous on empty R_D" `Quick
            test_empty_join_theorems_vacuous;
          Alcotest.test_case "empty relation in database" `Quick
            test_empty_relation_in_database;
          Alcotest.test_case "engine on empty states" `Quick
            test_engine_on_empty_states;
          Alcotest.test_case "pipeline on empty join" `Quick
            test_pipeline_on_empty_join;
        ] );
      ( "singleton",
        [
          Alcotest.test_case "trivial strategy" `Quick test_trivial_strategy;
          Alcotest.test_case "vacuous conditions" `Quick
            test_trivial_conditions;
        ] );
      ( "guards",
        [
          Alcotest.test_case "hypergraph subsets" `Quick test_subsets_guard;
          Alcotest.test_case "join trees" `Quick test_jointree_guard;
          Alcotest.test_case "setops DP" `Quick test_setops_guard;
          Alcotest.test_case "subset DP" `Quick test_dp_guard;
        ] );
      ( "printing",
        [
          Alcotest.test_case "relation table" `Quick test_relation_pp_table;
          Alcotest.test_case "database brief" `Quick test_database_pp_brief;
          Alcotest.test_case "condition witness" `Quick
            test_condition_witness_pp;
          Alcotest.test_case "status" `Quick test_status_pp;
        ] );
      ( "failure-injection",
        [
          Alcotest.test_case "oracle exceptions propagate" `Quick
            test_oracle_exception_propagates;
          Alcotest.test_case "map_states scheme guard" `Quick
            test_map_states_scheme_guard;
        ] );
    ]

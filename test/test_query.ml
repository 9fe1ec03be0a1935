(* Tests for the conjunctive-query front end and the MCV estimator. *)

open Mj_relation
open Multijoin
open Mj_query
open Mj_optimizer


let i = Value.int

(* A tiny edge relation for graph-style queries: columns (src, dst) as
   attributes "a", "b" in Attr order. *)
let edge_relation rows =
  let a = Attr.make "a" and b = Attr.make "b" in
  Relation.make
    (Attr.Set.of_list [ a; b ])
    (List.map (fun (x, y) -> Tuple.of_list [ (a, i x); (b, i y) ]) rows)

let lookup_edges rel = fun _ -> rel

(* ------------------------------------------------------------------ *)
(* Parsing                                                              *)
(* ------------------------------------------------------------------ *)

let test_parse_with_head () =
  let q = Cq.parse "Q(x, y) :- R(x, z), S(z, y)." in
  Alcotest.(check (list string)) "head" [ "x"; "y" ] q.Cq.head;
  Alcotest.(check int) "two atoms" 2 (List.length q.Cq.body);
  Alcotest.(check string) "printed" "Q(x, y) :- R(x, z), S(z, y)."
    (Cq.to_string q)

let test_parse_headless () =
  let q = Cq.parse "R(x, z), S(z, y)" in
  Alcotest.(check (list string)) "implicit head = all vars" [ "x"; "y"; "z" ]
    q.Cq.head

let test_parse_errors () =
  List.iter
    (fun (what, src) ->
      match Cq.parse src with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.failf "%s should be rejected" what)
    [
      ("empty", "");
      ("no args", "R()");
      ("repeated var in atom", "R(x, x)");
      ("same variable set twice", "R(x, y), S(y, x)");
      ("head var not in body", "Q(w) :- R(x, y).");
      ("garbage", "R(x, y) garbage");
    ]

let test_variables_and_scheme () =
  let q = Cq.parse "R(x, z), S(z, y), T(y, w)" in
  Alcotest.(check (list string)) "vars" [ "w"; "x"; "y"; "z" ]
    (Cq.variables q);
  Alcotest.(check int) "three schemes" 3
    (Mj_relation.Scheme.Set.cardinal (Cq.scheme q));
  Alcotest.(check bool) "connected chain" true
    (Mj_hypergraph.Hypergraph.connected (Cq.scheme q))

(* ------------------------------------------------------------------ *)
(* Evaluation                                                           *)
(* ------------------------------------------------------------------ *)

let path_edges = edge_relation [ (1, 2); (2, 3); (3, 4); (2, 4) ]

let test_two_hop () =
  let q = Cq.parse "Q(x, y) :- E(x, z), F(z, y)." in
  let lookup = lookup_edges path_edges in
  let result = Cq.evaluate q lookup in
  (* Pairs reachable in exactly two steps: 1->3, 1->4 (via 2), 2->4. *)
  Alcotest.(check int) "three two-hop pairs" 3 (Relation.cardinality result)

let test_triangle_query () =
  let tri = edge_relation [ (1, 2); (2, 3); (3, 1); (1, 3) ] in
  let q = Cq.parse "Q(x, y, z) :- E(x, y), F(y, z), G(z, x)." in
  let result = Cq.evaluate q (lookup_edges tri) in
  (* Directed triangles: (1,2,3) via 1->2->3->1; (3,1,... ) rotations
     count separately; also 1->3->1? needs self loops — no.  The cycle
     1->2->3->1 appears as 3 variable bindings. *)
  Alcotest.(check int) "three bindings of the one triangle" 3
    (Relation.cardinality result)

let test_self_join_renaming () =
  (* The same predicate twice with different variables: a self join. *)
  let q = Cq.parse "Q(x, z) :- E(x, y), F(y, z)." in
  let sym = edge_relation [ (1, 2); (2, 1) ] in
  let result = Cq.evaluate q (lookup_edges sym) in
  (* 1->2->1 and 2->1->2. *)
  Alcotest.(check int) "two closed pairs" 2 (Relation.cardinality result)

let test_projection () =
  let q = Cq.parse "Q(x) :- E(x, z), F(z, y)." in
  let result = Cq.evaluate q (lookup_edges path_edges) in
  (* Sources with a two-hop path: 1 and 2. *)
  Alcotest.(check int) "two sources" 2 (Relation.cardinality result)

let test_arity_mismatch () =
  let q = Cq.parse "Q(x) :- E(x, y, z)." in
  match Cq.evaluate q (lookup_edges path_edges) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "arity mismatch must be rejected"

let test_evaluate_with_strategy () =
  let q = Cq.parse "R(x, z), S(z, y), T(y, w)" in
  let lookup = lookup_edges path_edges in
  let db = Cq.instantiate q lookup in
  let d = Database.schemes db in
  let default = Cq.evaluate q lookup in
  List.iter
    (fun s ->
      Alcotest.(check bool) "same result under any strategy" true
        (Relation.equal default (Cq.evaluate ~strategy:s q lookup)))
    (Enumerate.all d)

let test_optimize_plan_valid () =
  let q = Cq.parse "R(x, z), S(z, y), T(y, w)" in
  let r = Cq.optimize q (lookup_edges path_edges) in
  Alcotest.(check bool) "valid plan for the body" true
    (Strategy.check r.Optimal.strategy = Ok ()
    && Mj_relation.Scheme.Set.equal
         (Strategy.schemes r.Optimal.strategy)
         (Cq.scheme q))

(* ------------------------------------------------------------------ *)
(* MCV estimator                                                        *)
(* ------------------------------------------------------------------ *)

let skewed_pair ~seed =
  let rng = Random.State.make [| seed; 131 |] in
  let zipf s =
    let scheme = Scheme.of_string s in
    (scheme, Mj_workload.Datagen.zipf ~rng ~rows:40 ~domain:12 ~skew:1.4 scheme)
  in
  let r1 = zipf "AB" in
  let r2 = zipf "BC" in
  Database.of_coded (Coded.of_ints [ r1; r2 ])

let test_mcv_exact_with_full_k () =
  (* With k covering all values and one shared attribute, the MCV
     estimate of a pair join is exact. *)
  let db = skewed_pair ~seed:1 in
  let est = Estimate.of_database_mcv ~k:1000 db in
  let actual = Relation.cardinality (Database.join_all db) in
  Alcotest.(check int) "exact" actual (est (Database.schemes db))

let test_mcv_unlinked_selectivity () =
  let db =
    Database.of_rows
      [ ("AB", [ [ i 1; i 2 ] ]); ("CD", [ [ i 3; i 4 ] ]) ]
  in
  Alcotest.(check (float 1e-9)) "unlinked pairs have selectivity 1" 1.0
    (Estimate.mcv_selectivity db (Scheme.of_string "AB") (Scheme.of_string "CD"))

let test_mcv_beats_uniform_on_skew () =
  (* Statistical, over a fixed seed set: the MCV estimator must have a
     lower mean q-error than the uniform formula and may be (slightly)
     worse only in a small minority of draws. *)
  let samples = 200 in
  let u_sum = ref 0.0 and m_sum = ref 0.0 and m_worse = ref 0 in
  for seed = 1 to samples do
    let db = skewed_pair ~seed in
    let d = Database.schemes db in
    let actual = float_of_int (Relation.cardinality (Database.join_all db)) in
    let qerr est =
      let e = float_of_int (est d) in
      if actual = 0.0 || e = 0.0 then Float.infinity
      else Float.max (e /. actual) (actual /. e)
    in
    let u = qerr (Estimate.of_catalog (Catalog.of_database db)) in
    let m = qerr (Estimate.of_database_mcv ~k:8 db) in
    u_sum := !u_sum +. u;
    m_sum := !m_sum +. m;
    if m > u *. 1.05 then incr m_worse
  done;
  Alcotest.(check bool) "lower mean q-error" true (!m_sum < !u_sum);
  Alcotest.(check bool) "rarely worse" true
    (!m_worse <= samples / 20)

let test_mcv_selectivity_symmetric () =
  let db = skewed_pair ~seed:7 in
  let ab = Scheme.of_string "AB" and bc = Scheme.of_string "BC" in
  Alcotest.(check (float 1e-12)) "symmetric"
    (Estimate.mcv_selectivity db ab bc)
    (Estimate.mcv_selectivity db bc ab)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "mj_query"
    [
      ( "parse",
        [
          Alcotest.test_case "with head" `Quick test_parse_with_head;
          Alcotest.test_case "headless" `Quick test_parse_headless;
          Alcotest.test_case "errors" `Quick test_parse_errors;
          Alcotest.test_case "variables and scheme" `Quick
            test_variables_and_scheme;
        ] );
      ( "evaluate",
        [
          Alcotest.test_case "two hop" `Quick test_two_hop;
          Alcotest.test_case "triangle" `Quick test_triangle_query;
          Alcotest.test_case "self join" `Quick test_self_join_renaming;
          Alcotest.test_case "projection" `Quick test_projection;
          Alcotest.test_case "arity mismatch" `Quick test_arity_mismatch;
          Alcotest.test_case "any strategy" `Quick test_evaluate_with_strategy;
          Alcotest.test_case "optimize" `Quick test_optimize_plan_valid;
        ] );
      ( "mcv",
        [
          Alcotest.test_case "exact with full k" `Quick
            test_mcv_exact_with_full_k;
          Alcotest.test_case "unlinked selectivity" `Quick
            test_mcv_unlinked_selectivity;
          Alcotest.test_case "symmetric" `Quick test_mcv_selectivity_symmetric;
          Alcotest.test_case "beats uniform on skew (aggregate)" `Quick
            test_mcv_beats_uniform_on_skew;
        ] );
    ]

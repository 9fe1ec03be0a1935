(* Acyclicity cross-checks: Yannakakis's own order (the engine's
   semijoin program over GYO's ear tree) against the definitional full
   join, GYO against brute-force join-tree search, and the lossless-
   join strategy classifier against the classic FD decomposition
   facts. *)

open Mj_relation
open Mj_hypergraph
open Multijoin
open Mj_workload
module Engine = Mj_engine.Engine
module Physical = Mj_engine.Physical

let qtest name ?(count = 100) gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~name ~count gen prop)

let acyclic_shape kind n =
  match kind mod 2 with 0 -> Querygraph.chain n | _ -> Querygraph.star n

let acyclic_db (kind, n, seed, regime) =
  let rng = Random.State.make [| seed; n; kind; regime; 71 |] in
  let d = acyclic_shape kind n in
  match regime mod 3 with
  | 0 -> Dbgen.uniform_db ~rng ~rows:5 ~domain:3 d
  | 1 -> Dbgen.skewed_db ~rng ~rows:6 ~domain:3 ~skew:1.2 d
  | _ -> Dbgen.consistent_acyclic_db ~rng ~rows:5 ~domain:4 d

let acyclic_case =
  QCheck2.Gen.(
    quad (int_range 0 1) (int_range 2 6) (int_range 0 10_000) (int_range 0 2))

(* ------------------------------------------------------------------ *)
(* Yannakakis = full join on acyclic databases                          *)
(* ------------------------------------------------------------------ *)

let prop_evaluate_is_full_join =
  qtest "ear-tree Semijoin_program equals join_all on acyclic databases"
    ~count:60 acyclic_case
    (fun case ->
      let db = acyclic_db case in
      match Gyo.rooted_ear_tree (Database.schemes db) with
      | None -> false
      | Some rt ->
          List.for_all
            (fun plane ->
              let cfg = Engine.Config.make ~plane () in
              let r, _ =
                Engine.execute_plan cfg db (Physical.Semijoin_program rt)
              in
              Relation.equal r (Database.join_all db))
            [ Engine.Seed; Engine.Frame ])

let prop_reduce_then_join =
  qtest "semijoin program preserves the full join" ~count:60 acyclic_case
    (fun case ->
      let db = acyclic_db case in
      Relation.equal
        (Database.join_all (Consistency.semijoin_reduce db))
        (Database.join_all db))

(* ------------------------------------------------------------------ *)
(* GYO = brute-force join-tree search                                   *)
(* ------------------------------------------------------------------ *)

let random_scheme (n, seed, p10) =
  let rng = Random.State.make [| seed; n; p10; 72 |] in
  Querygraph.random ~extra_edge_prob:(float_of_int p10 /. 10.) ~rng n

let scheme_case =
  QCheck2.Gen.(
    triple (int_range 2 6) (int_range 0 10_000) (int_range 0 10))

let prop_gyo_matches_brute_force =
  qtest "GYO acyclicity ⇔ some join tree exists (brute force)" ~count:80
    scheme_case
    (fun case ->
      let d = random_scheme case in
      Gyo.is_alpha_acyclic d = (Jointree.all_join_trees d <> []))

let prop_gyo_tree_is_a_join_tree =
  qtest "on acyclic schemes, GYO's tree passes the definitional check"
    ~count:80 scheme_case
    (fun case ->
      let d = random_scheme case in
      match Gyo.ear_decomposition d with
      | None -> not (Gyo.is_alpha_acyclic d) || Scheme.Set.cardinal d < 2
      | Some t -> Jointree.is_join_tree d t)

let prop_rooted_ear_tree =
  qtest "GYO's rooted ear tree: last survivor first, then ears reversed"
    ~count:80 scheme_case
    (fun case ->
      let d = random_scheme case in
      match (Gyo.ear_decomposition d, Gyo.rooted_ear_tree d) with
      | None, None -> not (Gyo.is_alpha_acyclic d)
      | Some ears, Some rt ->
          let removed = List.map fst ears in
          let survivors =
            List.fold_left (fun acc e -> Scheme.Set.remove e acc) d removed
          in
          let edge_equal (e, p) (e', p') =
            Scheme.equal e e' && Scheme.equal p p'
          in
          List.equal edge_equal rt.Jointree.elims ears
          && Scheme.Set.equal survivors
               (Scheme.Set.singleton rt.Jointree.root)
          && List.equal Scheme.equal (Jointree.join_order rt)
               (rt.Jointree.root :: List.rev removed)
      | _ -> false)

let prop_brute_force_trees_all_valid =
  qtest "every brute-force join tree passes the definitional check"
    ~count:40 scheme_case
    (fun case ->
      let d = random_scheme case in
      List.for_all (Jointree.is_join_tree d) (Jointree.all_join_trees d))

(* ------------------------------------------------------------------ *)
(* Lossless joins under functional dependencies                         *)
(* ------------------------------------------------------------------ *)

let ab = Scheme.Set.of_strings [ "AB" ]
let bc = Scheme.Set.of_strings [ "BC" ]

let test_lossless_classic_decomposition () =
  (* {AB, BC} of ABC is lossless iff B → A or B → C. *)
  Alcotest.(check bool) "B→C lossless" true
    (Lossless.step_is_lossless (Fd.of_strings [ ("B", "C") ]) ab bc);
  Alcotest.(check bool) "B→A lossless" true
    (Lossless.step_is_lossless (Fd.of_strings [ ("B", "A") ]) ab bc);
  Alcotest.(check bool) "no FDs lossy" false
    (Lossless.step_is_lossless [] ab bc);
  Alcotest.(check bool) "irrelevant FD lossy" false
    (Lossless.step_is_lossless (Fd.of_strings [ ("A", "B") ]) ab bc)

(* Chain attributes are multi-character names ("c0", "c1", ...), so
   FDs over them need explicit [Attr.make] — [Fd.of_strings] parses
   the paper's one-letter shorthand. *)
let chain_fd i j =
  Fd.fd
    (Attr.Set.singleton (Attr.make (Printf.sprintf "c%d" i)))
    (Attr.Set.singleton (Attr.make (Printf.sprintf "c%d" j)))

let test_lossless_strategy_chain () =
  (* Chain c0c1 – c1c2: the single step is lossless iff c1 determines
     one side. *)
  let d = Querygraph.chain 2 in
  let s = Strategy.left_deep (Scheme.Set.elements d) in
  Alcotest.(check bool) "c1→c2 lossless strategy" true
    (Lossless.strategy_is_lossless [ chain_fd 1 2 ] s);
  Alcotest.(check bool) "no FDs lossy strategy" false
    (Lossless.strategy_is_lossless [] s);
  Alcotest.(check int) "no lossless strategies without FDs" 0
    (List.length (Lossless.lossless_strategies [] d));
  Alcotest.(check bool) "all strategies lossless under c1→c2" true
    (List.length (Lossless.lossless_strategies [ chain_fd 1 2 ] d)
    = List.length (Enumerate.all d))

let test_best_lossless_agrees_with_gap () =
  let rng = Random.State.make [| 9; 73 |] in
  let db = Dbgen.uniform_db ~rng ~rows:4 ~domain:3 (Querygraph.chain 3) in
  let fds = [ chain_fd 1 0; chain_fd 2 3 ] in
  match (Lossless.best_lossless fds db, Lossless.gap_to_optimum fds db) with
  | None, None -> ()
  | Some best, Some (loss, opt) ->
      Alcotest.(check int) "gap's lossless side" best.Optimal.cost loss;
      Alcotest.(check bool) "lossless ≥ optimum" true (loss >= opt);
      Alcotest.(check int) "materialized cost" best.Optimal.cost
        (Cost.tau db best.Optimal.strategy)
  | _ -> Alcotest.fail "best_lossless and gap_to_optimum disagree on emptiness"

let prop_total_fds_lossless_iff_cp_free =
  (* With every attribute determining the whole universe, a step is
     lossless exactly when its sides share an attribute — i.e. the
     lossless strategies are precisely the Cartesian-free ones.  (A
     Cartesian step has an empty decomposition intersection, which no
     FD can repair.) *)
  qtest "under total FDs, lossless ⇔ Cartesian-free" ~count:10
    QCheck2.Gen.(int_range 2 4)
    (fun n ->
      let d = Querygraph.chain n in
      let fds =
        List.concat_map
          (fun i ->
            List.filter_map
              (fun j -> if j = i then None else Some (chain_fd i j))
              (List.init (n + 1) Fun.id))
          (List.init (n + 1) Fun.id)
      in
      List.for_all
        (fun s ->
          Lossless.strategy_is_lossless fds s
          = not (Strategy.uses_cartesian s))
        (Enumerate.all d))

let () =
  Alcotest.run "acyclic"
    [
      ( "yannakakis",
        [
          prop_evaluate_is_full_join;
          prop_reduce_then_join;
        ] );
      ( "gyo",
        [
          prop_gyo_matches_brute_force;
          prop_gyo_tree_is_a_join_tree;
          prop_rooted_ear_tree;
          prop_brute_force_trees_all_valid;
        ] );
      ( "lossless",
        [
          Alcotest.test_case "classic decomposition" `Quick
            test_lossless_classic_decomposition;
          Alcotest.test_case "chain strategies" `Quick
            test_lossless_strategy_chain;
          Alcotest.test_case "best lossless vs gap" `Quick
            test_best_lossless_agrees_with_gap;
          prop_total_fds_lossless_iff_cp_free;
        ] );
    ]

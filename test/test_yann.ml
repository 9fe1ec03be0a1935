(* The Yannakakis acyclic path: equivalence and law suite.

   Six layers, mirroring the implementation:

   - the engine matrix: the [yann] policy against the [Hash_all]
     reference on random acyclic databases (chain / star / path /
     snowflake × data regimes), at 1 and 4 domains — bit-identical
     results, and identical τ and per-step logs across domain counts;
   - the Goodman–Shmueli projection laws: a full reduction leaves every
     relation equal to the projection of the full join onto its scheme,
     and every root-containing prefix of the join tree's join order
     materializes exactly the projection of the full join onto the
     prefix's attributes (the instance-optimality witness);
   - the Section 5 table of bench YANN, pinned: τ of Yannakakis's own
     order (GYO's ear tree) and its optimal count;
   - ranked enumeration: [Ranked_enumerate (rt, k)] streams exactly the
     k-prefix of the sorted full output for {e every} k from 0 to
     |output|+2, with τ = the rows streamed;
   - the walker's span skeleton (names, nesting, attribute keys in
     order) for semijoin, ranked, binary and generic-join plans;
   - the lowering contract: acyclic strategies lower to one
     [Semijoin_program] whose tree covers the scheme set, cyclic ones
     fall through to the wcoj arm, and [lower_ranked] refuses cyclic
     inputs. *)

open Mj_relation
open Mj_hypergraph
open Multijoin
open Mj_engine
module Dbgen = Mj_workload.Dbgen

let qtest name ?(count = 100) gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~name ~count gen prop)

(* ------------------------------------------------------------------ *)
(* Generators                                                           *)
(* ------------------------------------------------------------------ *)

(* Only α-acyclic shapes: the yann policy's own arm.  (Cyclic inputs
   take the wcoj fallthrough, covered by the contract suite below and
   test_wcoj.) *)
let shape kind n =
  match kind with
  | 0 -> Querygraph.chain n
  | 1 -> Querygraph.star n
  | 2 -> Querygraph.path n
  | _ -> Querygraph.snowflake ~fanout:2 (max 3 n)

let gen_db =
  let open QCheck2.Gen in
  let* kind = int_range 0 3 in
  let* n = int_range 2 5 in
  let* regime = int_range 0 2 in
  let* seed = int_range 0 100_000 in
  let rng = Random.State.make [| seed; n; kind; regime; 0x9a |] in
  let d = shape kind n in
  let db =
    match regime with
    | 0 -> Dbgen.uniform_db ~rng ~rows:6 ~domain:3 d
    | 1 -> Dbgen.skewed_db ~rng ~rows:6 ~domain:4 ~skew:1.5 d
    | _ -> Dbgen.consistent_acyclic_db ~rng ~rows:5 ~domain:4 d
  in
  return db

let scheme_list db = Scheme.Set.elements (Database.schemes db)
let strategy_of db = Strategy.left_deep (scheme_list db)

(* ------------------------------------------------------------------ *)
(* Engine matrix ≡ reference                                            *)
(* ------------------------------------------------------------------ *)

let engine_matrix_agrees =
  qtest "yann policy ≡ hash policy across planes × domains"
    ~count:80 gen_db (fun db ->
      let reference = Cost.eval db (strategy_of db) in
      List.for_all
        (fun domains ->
          let cfg = Engine.Config.make ~domains ~policy:Planner.Yannakakis () in
          Relation.equal (fst (Engine.run cfg db (strategy_of db))) reference)
        [ 1; 4 ])

let domains_deterministic =
  qtest "yann τ and per-step log agree across planes and domain counts"
    ~count:60 gen_db (fun db ->
      let strategy = strategy_of db in
      let run domains =
        let cfg = Engine.Config.make ~domains ~policy:Planner.Yannakakis () in
        snd (Engine.run cfg db strategy)
      in
      let cells = [ run 1; run 2; run 4 ] in
      match cells with
      | first :: rest ->
          List.for_all
            (fun (m : Engine.stats) ->
              m.Engine.tuples_generated = first.Engine.tuples_generated
              && m.Engine.per_step = first.Engine.per_step)
            rest
      | [] -> true)

(* ------------------------------------------------------------------ *)
(* Goodman–Shmueli projection laws                                      *)
(* ------------------------------------------------------------------ *)

let full_reduction_projects =
  qtest "full reduction leaves each relation = π_scheme(full join)"
    ~count:80 gen_db (fun db ->
      let expected = Database.join_all db in
      let reduced = Consistency.semijoin_reduce db in
      List.for_all
        (fun r ->
          Relation.equal r (Relation.project expected (Relation.scheme r)))
        (Database.relations reduced))

let prefix_joins_project =
  qtest "every join-order prefix joins to π_prefix(full join)" ~count:80
    gen_db (fun db ->
      let d = Database.schemes db in
      match Planner.yann_tree db d with
      | None -> false (* every generated shape is acyclic *)
      | Some rt ->
          let expected = Database.join_all db in
          let reduced = Consistency.semijoin_reduce db in
          let order = Jointree.join_order rt in
          (* Fold root-outward; after each step the accumulated join
             must equal the projection of the full join onto the
             attributes seen so far — never larger (the
             instance-optimality witness). *)
          let ok = ref true in
          let _ =
            List.fold_left
              (fun acc s ->
                let r = Database.find reduced s in
                let acc =
                  match acc with
                  | None -> r
                  | Some a -> Relation.natural_join a r
                in
                let attrs = Relation.scheme acc in
                if not (Relation.equal acc (Relation.project expected attrs))
                then ok := false;
                Some acc)
              None order
          in
          !ok)

(* ------------------------------------------------------------------ *)
(* The YANN paper table, pinned                                         *)
(* ------------------------------------------------------------------ *)

(* bench YANN's Section 5 table: for each shape, the τ of Yannakakis's
   order — the engine's semijoin program over GYO's ear tree — for
   seeds 1–15 ([|seed; 81|], rows 6, domain 3), and how many of the 15
   match the τ-optimum of the reduced database. *)
let paper_table_pinned =
  Alcotest.test_case "YANN paper table: tau per seed and optimal count"
    `Quick (fun () ->
      List.iter
        (fun (name, shape, want_taus, want_optimal) ->
          let cells =
            List.init 15 (fun i ->
                let rng = Random.State.make [| i + 1; 81 |] in
                let db = Dbgen.uniform_db ~rng ~rows:6 ~domain:3 shape in
                let reduced = Consistency.semijoin_reduce db in
                let tau =
                  match Gyo.rooted_ear_tree (Database.schemes db) with
                  | None -> Alcotest.fail "chains and stars are acyclic"
                  | Some rt ->
                      let cfg = Engine.Config.make () in
                      let _, stats =
                        Engine.execute_plan cfg db
                          (Physical.Semijoin_program rt)
                      in
                      stats.Engine.tuples_generated
                in
                (tau, tau = (Optimal.optimum_exn reduced).Optimal.cost))
          in
          Alcotest.(check (list int)) (name ^ " tau") want_taus
            (List.map fst cells);
          Alcotest.(check int) (name ^ " optimal") want_optimal
            (List.length (List.filter snd cells)))
        [
          ( "chain-4",
            Querygraph.chain 4,
            [ 30; 40; 56; 82; 24; 75; 61; 28; 45; 38; 70; 39; 20; 56; 36 ],
            1 );
          ( "chain-6",
            Querygraph.chain 6,
            [ 135; 161; 285; 374; 100; 144; 240; 170; 100; 115; 196; 107; 91;
              219; 124 ],
            0 );
          ( "star-5",
            Querygraph.star 5,
            [ 60; 48; 104; 147; 116; 97; 148; 78; 94; 168; 83; 70; 106; 116;
              160 ],
            1 );
        ])

(* ------------------------------------------------------------------ *)
(* Ranked enumeration: every k                                          *)
(* ------------------------------------------------------------------ *)

let topk_all_k =
  qtest "top-k = sorted k-prefix for every k, both planes, τ = rows"
    ~count:40 gen_db (fun db ->
      let d = Database.schemes db in
      match Planner.yann_tree db d with
      | None -> false
      | Some rt ->
          let full = Relation.tuples (Database.join_all db) in
          let card = List.length full in
          let prefix k = List.filteri (fun i _ -> i < k) full in
          let cfg =
            Engine.Config.make ~domains:1 ~policy:Planner.Yannakakis ()
          in
          List.for_all
            (fun k ->
              let r, stats =
                Engine.execute_plan cfg db (Physical.Ranked_enumerate (rt, k))
              in
              let want = prefix k in
              List.equal Tuple.equal (Relation.tuples r) want
              && stats.Engine.tuples_generated = List.length want)
            (List.init (card + 3) Fun.id))

(* ------------------------------------------------------------------ *)
(* Span skeleton                                                        *)
(* ------------------------------------------------------------------ *)

(* The walker's span shapes are an interface ([mjoin explain], the
   check harness and the telemetry read them): span names, nesting and
   each span's attribute keys in order, pinned for the semijoin
   program, ranked enumeration, a binary hash plan and a generic join. *)
let span_skeleton_pinned =
  Alcotest.test_case "span names and attribute keys, in order" `Quick
    (fun () ->
      let rec skeleton (s : Mj_obs.Obs.span_tree) =
        Printf.sprintf "%s(%s)%s" s.name
          (String.concat "," (List.map fst s.attrs))
          (match s.children with
          | [] -> ""
          | cs -> "[" ^ String.concat " " (List.map skeleton cs) ^ "]")
      in
      let rng = Random.State.make [| 3; 0x9a |] in
      let db = Dbgen.uniform_db ~rng ~rows:6 ~domain:3 (Querygraph.star 3) in
      let d = Database.schemes db in
      let rt = Option.get (Gyo.rooted_ear_tree d) in
      let scan = "scan(scheme,rows)" and semi = "semijoin(scheme,dir,rows)" in
      let sweeps = [ scan; scan; scan; semi; semi; semi; semi ] in
      let join = "join(algo,scheme,rows)" in
      let cases =
        [
          ( Physical.Semijoin_program rt,
            "[" ^ String.concat " " (sweeps @ [ join; join ]) ^ "]" );
          ( Physical.Ranked_enumerate (rt, 2),
            "[" ^ String.concat " " (sweeps @ [ "topk(scheme,k,rows)" ]) ^ "]"
          );
          ( Physical.of_strategy (strategy_of db),
            Printf.sprintf "[%s[%s[%s %s] %s]]" join join scan scan scan );
          ( Physical.Generic_join
              ( Scheme.Set.elements d,
                Attr.Set.elements (Scheme.Set.universe d) ),
            "[join(algo,scheme,order,rows)]" );
        ]
      in
      List.iter
        (fun (plan, want) ->
          let obs = Mj_obs.Obs.make ~gc:false () in
          let cfg = Engine.Config.make ~obs () in
          ignore (Engine.execute_plan cfg db plan);
          Alcotest.(check (list string))
            (Physical.to_string plan)
            [ "execute-frame()" ^ want ]
            (List.map skeleton (Mj_obs.Obs.trace obs)))
        cases)

(* ------------------------------------------------------------------ *)
(* Lowering contract                                                    *)
(* ------------------------------------------------------------------ *)

let lowering_shape =
  qtest "Yannakakis lowers acyclic schemes to one Semijoin_program"
    gen_db (fun db ->
      let d = Database.schemes db in
      let strategy = strategy_of db in
      match Planner.lower ~policy:Planner.Yannakakis db strategy with
      | Physical.Semijoin_program rt ->
          let covered =
            Scheme.Set.of_list (Jointree.join_order rt)
          in
          (not (Planner.is_cyclic d)) && Scheme.Set.equal covered d
      | Physical.Scan _ ->
          (* A single-relation strategy has nothing to semijoin. *)
          Scheme.Set.cardinal d = 1
      | _ -> false)

let cyclic_falls_through =
  Alcotest.test_case "cyclic inputs take the wcoj arm; ranked refuses"
    `Quick (fun () ->
      let d = Querygraph.cycle 3 in
      let rng = Random.State.make [| 7; 0x9a |] in
      let db = Dbgen.uniform_db ~rng ~rows:6 ~domain:3 d in
      let strategy = strategy_of db in
      (match Planner.lower ~policy:Planner.Yannakakis db strategy with
      | Physical.Generic_join _ -> ()
      | p ->
          Alcotest.failf "expected a generic join, got %s"
            (Format.asprintf "%a" Physical.pp p));
      match Planner.lower_ranked db strategy ~k:5 with
      | None -> ()
      | Some _ -> Alcotest.fail "lower_ranked accepted a cyclic strategy")

let lower_ranked_shape =
  qtest "lower_ranked wraps the yann tree for the requested k" gen_db
    (fun db ->
      let strategy = strategy_of db in
      match Planner.lower_ranked db strategy ~k:4 with
      | Some (Physical.Ranked_enumerate (rt, 4)) ->
          Scheme.Set.equal
            (Scheme.Set.of_list (Jointree.join_order rt))
            (Database.schemes db)
      | _ -> false)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "yann"
    [
      ("matrix", [ engine_matrix_agrees; domains_deterministic ]);
      ( "goodman-shmueli",
        [ full_reduction_projects; prefix_joins_project ] );
      ("paper-table", [ paper_table_pinned ]);
      ("ranked", [ topk_all_k ]);
      ("spans", [ span_skeleton_pinned ]);
      ( "lowering",
        [ lowering_shape; cyclic_falls_through; lower_ranked_shape ] );
    ]

(* Tests for the later-layer additions: randomized plan search, extension
   join strategies, and the CSV / database text formats. *)

open Mj_relation
open Mj_hypergraph
open Multijoin
open Mj_optimizer

let qtest name ?(count = 100) gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~name ~count gen prop)

(* ------------------------------------------------------------------ *)
(* Random search                                                        *)
(* ------------------------------------------------------------------ *)

let st = Strategy.of_string

let test_neighbors_shapes () =
  (* ((AB*BC)*CD): rotations and exchange at the root; 3-leaf trees have
     3 shapes (times leaf placements) minus the original. *)
  let s = st "(AB * BC) * CD" in
  let ns = Random_search.neighbors s in
  Alcotest.(check int) "two moves from a 3-relation left-deep tree" 2
    (List.length ns);
  List.iter
    (fun s' ->
      Alcotest.(check bool) "valid" true (Strategy.check s' = Ok ());
      Alcotest.(check bool) "same leaves" true
        (Scheme.Set.equal (Strategy.schemes s') (Strategy.schemes s)))
    ns

let test_neighbors_none_for_pairs () =
  Alcotest.(check int) "a single join has no neighbours" 0
    (List.length (Random_search.neighbors (st "AB * BC")))

let test_random_neighbor_fixpoint () =
  let rng = Random.State.make [| 1 |] in
  let s = st "AB * BC" in
  Alcotest.(check bool) "returns itself" true
    (Strategy.equal (Random_search.random_neighbor ~rng s) s)

let prop_move_set_reaches_all_shapes =
  (* Closure of the move set from a left-deep start covers the whole
     space (on 4-5 relations). *)
  qtest "move closure = full strategy space" ~count:20
    QCheck2.Gen.(int_range 4 5)
    (fun n ->
      let d = Querygraph.clique n in
      let start = Strategy.left_deep (Scheme.Set.elements d) in
      let module SSet = Set.Make (struct
        type t = Strategy.t

        let compare = Strategy.compare
      end) in
      let rec closure frontier seen =
        if SSet.is_empty frontier then seen
        else
          let next =
            SSet.fold
              (fun s acc ->
                List.fold_left
                  (fun acc s' -> SSet.add s' acc)
                  acc (Random_search.neighbors s))
              frontier SSet.empty
          in
          let fresh = SSet.diff next seen in
          closure fresh (SSet.union seen fresh)
      in
      let all = closure (SSet.singleton start) (SSet.singleton start) in
      (* The enumeration identifies commutative variants; the move set
         preserves child order, so compare up to commutativity. *)
      List.for_all
        (fun s ->
          SSet.exists (fun s' -> Strategy.equal_commutative s s') all)
        (Enumerate.all d))

let gen_search_instance =
  let open QCheck2.Gen in
  let* n = int_range 3 6 in
  let* seed = int_range 0 100_000 in
  let rng = Random.State.make [| seed; n; 111 |] in
  let d = Querygraph.random ~extra_edge_prob:0.4 ~rng n in
  let cat =
    Catalog.synthetic
      (List.map
         (fun s -> (s, 1 lsl (2 + Random.State.int rng 5), []))
         (Scheme.Set.elements d))
  in
  return (d, Estimate.of_catalog cat, seed)

let prop_ii_dominated_by_optimum =
  qtest "iterative improvement >= DP optimum, valid plan" ~count:40
    gen_search_instance (fun (d, oracle, seed) ->
      let rng = Random.State.make [| seed; 7 |] in
      let ii = Random_search.iterative_improvement ~rng ~oracle ~restarts:5 d in
      let opt =
        match Optimal.optimum_with_oracle ~subspace:Enumerate.All ~oracle d with
        | Some r -> r.cost
        | None -> assert false
      in
      Strategy.check ii.strategy = Ok ()
      && Cost.tau_oracle oracle ii.strategy = ii.cost
      && ii.cost >= opt)

(* One small search instance: a random query graph on [n] relations
   with synthetic cardinalities, searched by iterative improvement (8
   restarts) and by the DP. *)
let ii_instance (n, seed) =
  let rng = Random.State.make [| seed; n; 112 |] in
  let d = Querygraph.random ~extra_edge_prob:0.5 ~rng n in
  let cat =
    Catalog.synthetic
      (List.map
         (fun s -> (s, 1 lsl (2 + Random.State.int rng 4), []))
         (Scheme.Set.elements d))
  in
  let oracle = Estimate.of_catalog cat in
  let ii = Random_search.iterative_improvement ~rng ~oracle ~restarts:8 d in
  match Optimal.optimum_with_oracle ~oracle d with
  | Some opt -> (oracle, ii, opt.cost)
  | None -> assert false

(* Hill climbing promises a local minimum, not the optimum: over
   n ∈ {3, 4} and seed ∈ [0, 100000], 21 of the 200,002 instances stop
   above the optimum.  What holds is that the plan costs what it claims,
   no less than the optimum, and that no move makes it strictly
   cheaper. *)
let local_minimum oracle (ii : Optimal.result) opt =
  Cost.tau_oracle oracle ii.strategy = ii.cost
  && ii.cost >= opt
  && List.for_all
       (fun s -> Cost.tau_oracle oracle s >= ii.cost)
       (Random_search.neighbors ii.strategy)

let prop_ii_local_minimum_small =
  qtest "iterative improvement reaches a local minimum on 3-4 relations"
    ~count:40
    QCheck2.Gen.(pair (int_range 3 4) (int_range 0 100_000))
    (fun inst ->
      let oracle, ii, opt = ii_instance inst in
      local_minimum oracle ii opt)

(* The first instance that stops above the optimum. *)
let test_ii_local_minimum_above_optimum () =
  let oracle, ii, opt = ii_instance (4, 8635) in
  Alcotest.(check int) "optimum" 13 opt;
  Alcotest.(check int) "local minimum" 17 ii.cost;
  Alcotest.(check bool) "no cheaper move" true (local_minimum oracle ii opt)

(* On the first 250 seeds of each size the climb does find the
   optimum. *)
let test_ii_finds_optimum_fixed () =
  for n = 3 to 4 do
    for seed = 0 to 249 do
      let _, ii, opt = ii_instance (n, seed) in
      if ii.cost <> opt then
        Alcotest.failf "n=%d seed=%d: %d above the optimum %d" n seed ii.cost
          opt
    done
  done

let prop_sa_dominated_by_optimum =
  qtest "simulated annealing >= DP optimum, valid plan" ~count:25
    gen_search_instance (fun (d, oracle, seed) ->
      let rng = Random.State.make [| seed; 8 |] in
      let sa =
        Random_search.simulated_annealing ~rng ~oracle ~cooling:0.8
          ~steps_per_temperature:10 d
      in
      let opt =
        match Optimal.optimum_with_oracle ~oracle d with
        | Some r -> r.cost
        | None -> assert false
      in
      Strategy.check sa.strategy = Ok () && sa.cost >= opt)

(* ------------------------------------------------------------------ *)
(* Extension joins                                                      *)
(* ------------------------------------------------------------------ *)

let test_superkey_step () =
  let fds = Fd.of_strings [ ("B", "C") ] in
  (* AB ⋈ BC on B: B keys BC's side ({B}+ = BC ⊇ BC). *)
  Alcotest.(check bool) "keyed side" true
    (Extension.superkey_step fds (Attr.Set.of_string "AB")
       (Attr.Set.of_string "BC"));
  Alcotest.(check bool) "no key, no step" false
    (Extension.superkey_step [] (Attr.Set.of_string "AB")
       (Attr.Set.of_string "BC"));
  Alcotest.(check bool) "disjoint is never a superkey step" false
    (Extension.superkey_step fds (Attr.Set.of_string "AB")
       (Attr.Set.of_string "CD"))

let test_extension_step () =
  (* B -> C determines part of BCD's private attributes: an extension
     join even though B is not a superkey of BCD. *)
  let fds = Fd.of_strings [ ("B", "C") ] in
  Alcotest.(check bool) "partial determination suffices" true
    (Extension.extension_step fds (Attr.Set.of_string "AB")
       (Attr.Set.of_string "BCD"));
  Alcotest.(check bool) "but not a superkey step" false
    (Extension.superkey_step fds (Attr.Set.of_string "AB")
       (Attr.Set.of_string "BCD"));
  Alcotest.(check bool) "no FDs: not an extension join" false
    (Extension.extension_step [] (Attr.Set.of_string "AB")
       (Attr.Set.of_string "BCD"))

let test_find_osborn_strategy () =
  (* Lookup chain with key-to-key joins in one direction:
     B -> C, C -> D make AB, BC, CD orderable as AB, then BC (B keys BC),
     then CD (C keys CD). *)
  let fds = Fd.of_strings [ ("B", "C"); ("C", "D") ] in
  let d = Scheme.Set.of_strings [ "AB"; "BC"; "CD" ] in
  (match Extension.find_osborn_strategy fds d with
  | None -> Alcotest.fail "an Osborn strategy exists"
  | Some s ->
      Alcotest.(check bool) "linear" true (Strategy.is_linear s);
      Alcotest.(check bool) "all steps superkey steps" true
        (Extension.strategy_all_superkey_steps fds s));
  (* Without FDs there is none. *)
  Alcotest.(check bool) "none without FDs" true
    (Extension.find_osborn_strategy [] d = None)

let test_find_extension_strategy_weaker () =
  (* B -> C only partially determines BCD, so no Osborn strategy over
     {AB, BCD}, but an extension strategy exists. *)
  let fds = Fd.of_strings [ ("B", "C") ] in
  let d = Scheme.Set.of_strings [ "AB"; "BCD" ] in
  Alcotest.(check bool) "no Osborn strategy" true
    (Extension.find_osborn_strategy fds d = None);
  (match Extension.find_extension_strategy fds d with
  | None -> Alcotest.fail "an extension strategy exists"
  | Some s ->
      Alcotest.(check bool) "all steps extension steps" true
        (Extension.strategy_all_extension_steps fds s))

let test_singleton_database () =
  let d = Scheme.Set.of_strings [ "AB" ] in
  match Extension.find_osborn_strategy [] d with
  | Some s -> Alcotest.(check bool) "trivial" true (Strategy.is_trivial s)
  | None -> Alcotest.fail "singleton always has a trivial strategy"

let prop_osborn_steps_satisfy_c2_inequality =
  (* On data satisfying the FDs, every step of an Osborn strategy obeys
     tau(join) <= one side — the Section 4 argument, checked live. *)
  qtest "Osborn steps obey the C2 inequality on keyed data" ~count:40
    QCheck2.Gen.(pair (int_range 3 5) (int_range 0 100_000))
    (fun (n, seed) ->
      let rng = Random.State.make [| seed; n; 113 |] in
      let d = Querygraph.chain n in
      let db = Mj_workload.Dbgen.superkey_db ~rng ~rows:5 ~domain:9 d in
      (* Injective columns: every attribute keys its relation. *)
      let fds =
        List.concat_map
          (fun scheme ->
            List.map
              (fun a -> Fd.fd (Attr.Set.singleton a) scheme)
              (Attr.Set.elements scheme))
          (Scheme.Set.elements d)
      in
      match Extension.find_osborn_strategy fds d with
      | None -> false
      | Some s ->
          let oracle = Cost.cardinality_oracle db in
          List.for_all
            (fun (d1, d2) ->
              let j = oracle (Scheme.Set.union d1 d2) in
              j <= oracle d1 || j <= oracle d2)
            (Strategy.steps s))

(* ------------------------------------------------------------------ *)
(* CSV and database text                                                *)
(* ------------------------------------------------------------------ *)

let test_csv_parse () =
  let r = Csv.parse_relation "A,B\n1,x\n2,y\n" in
  Alcotest.(check int) "two rows" 2 (Relation.cardinality r);
  Alcotest.(check string) "scheme" "AB"
    (Attr.Set.to_string (Relation.scheme r));
  let t = List.hd (Relation.tuples r) in
  Alcotest.(check bool) "int parsed" true
    (Value.equal (Tuple.get t (Attr.make "A")) (Value.int 1));
  Alcotest.(check bool) "string parsed" true
    (Value.equal (Tuple.get t (Attr.make "B")) (Value.str "x"))

let test_csv_negative_int () =
  let r = Csv.parse_relation "A\n-5\n" in
  let t = List.hd (Relation.tuples r) in
  Alcotest.(check bool) "negative int" true
    (Value.equal (Tuple.get t (Attr.make "A")) (Value.int (-5)))

let test_csv_whitespace () =
  let r = Csv.parse_relation " A , B \n 1 , hello \n" in
  let t = List.hd (Relation.tuples r) in
  Alcotest.(check bool) "trimmed" true
    (Value.equal (Tuple.get t (Attr.make "B")) (Value.str "hello"))

let test_csv_errors () =
  List.iter
    (fun (what, input) ->
      match Csv.parse_relation input with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.failf "%s should be rejected" what)
    [
      ("empty", "");
      ("row too short", "A,B\n1\n");
      ("row too long", "A,B\n1,2,3\n");
      ("duplicate attribute", "A,A\n1,2\n");
      ("empty attribute", "A,,B\n1,2,3\n");
    ]

let test_csv_roundtrip () =
  let r =
    Relation.of_rows "AB"
      [ [ Value.int 1; Value.str "x" ]; [ Value.int 2; Value.str "y" ] ]
  in
  Alcotest.(check bool) "roundtrip" true
    (Relation.equal r (Csv.parse_relation (Csv.to_csv r)))

let test_csv_rejects_separator_in_value () =
  let r = Relation.of_rows "A" [ [ Value.str "a,b" ] ] in
  match Csv.to_csv r with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "comma inside a value must be rejected"

let test_database_text_roundtrip () =
  let db = Mj_workload.Scenarios.example4 in
  let text = Csv.database_to_text db in
  Alcotest.(check bool) "roundtrip" true
    (Database.equal db (Csv.parse_database text))

let test_database_text_errors () =
  (match Csv.parse_database "A\n1\n" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "content before '=' must be rejected");
  match Csv.parse_database "= r1\nA\n1\n= r2\nA\n2\n" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "duplicate schemes must be rejected"

let prop_csv_roundtrip_random =
  qtest "CSV roundtrip on random integer relations" ~count:100
    QCheck2.Gen.(pair (int_range 1 4) (int_range 0 100_000))
    (fun (width, seed) ->
      let rng = Random.State.make [| seed; width |] in
      let scheme =
        Attr.Set.of_list
          (List.init width (fun i -> Attr.make (Printf.sprintf "A%d" i)))
      in
      let r =
        Database.find
          (Database.of_coded
             (Coded.of_ints
                [ (scheme, Mj_workload.Datagen.uniform ~rng ~rows:6 ~domain:5 scheme) ]))
          scheme
      in
      Relation.equal r (Csv.parse_relation (Csv.to_csv r)))

(* ------------------------------------------------------------------ *)
(* Lemmas as code                                                       *)
(* ------------------------------------------------------------------ *)

let gen_uniform_db =
  let open QCheck2.Gen in
  let* n = int_range 2 5 in
  let* seed = int_range 0 100_000 in
  let rng = Random.State.make [| seed; n; 121 |] in
  let d = Querygraph.random ~extra_edge_prob:0.3 ~rng n in
  return (Mj_workload.Dbgen.uniform_db ~rng ~rows:4 ~domain:3 d)

let prop_lemma1_follows_from_c1 =
  qtest "Lemma 1: C1 => the unconnected extension" ~count:40 gen_uniform_db
    (fun db ->
      (not (Conditions.holds_c1 db)) || Lemmas.lemma1_holds db)

let prop_lemma1_strict_follows_from_c1' =
  qtest "Lemma 1': C1' => the strict unconnected extension" ~count:40
    gen_uniform_db (fun db ->
      (not (Conditions.holds_c1_strict db)) || Lemmas.lemma1_strict_holds db)

let test_lemma2_on_example1 () =
  (* Example 1 satisfies C1; root = BC vs the unconnected {AB, DE, FG}. *)
  let db = Mj_workload.Scenarios.example1 in
  let s = Strategy.of_string "BC * ((AB * DE) * FG)" in
  match Lemmas.lemma2_transform db s with
  | None -> Alcotest.fail "lemma 2 configuration should match"
  | Some m ->
      Alcotest.(check bool) "tau does not increase" true
        (m.tau_after <= m.tau_before);
      Alcotest.(check bool) "component sum decreases" true
        (m.comp_sum_after < m.comp_sum_before);
      Alcotest.(check bool) "result valid" true (Strategy.check m.after = Ok ())

let test_lemma2_no_match () =
  let db = Mj_workload.Scenarios.example1 in
  (* Both children unconnected: lemma 2 does not apply. *)
  let s = Strategy.of_string "(AB * DE) * (BC * FG)" in
  Alcotest.(check bool) "no match" true (Lemmas.lemma2_transform db s = None)

let test_lemma3_on_example1 () =
  let db = Mj_workload.Scenarios.example1 in
  let s = Strategy.of_string "(AB * DE) * (BC * FG)" in
  match Lemmas.lemma3_transform db s with
  | None -> Alcotest.fail "lemma 3 configuration should match"
  | Some m ->
      (* Example 1 fails C2, so the inequality is not guaranteed — but
         the move must still be structurally sound. *)
      Alcotest.(check bool) "valid strategy" true
        (Strategy.check m.after = Ok ());
      Alcotest.(check bool) "component sum decreases" true
        (m.comp_sum_after < m.comp_sum_before)

let prop_lemma_moves_never_hurt_under_c1c2 =
  qtest "Lemmas 2-3 moves never increase tau under C1+C2" ~count:40
    gen_uniform_db (fun db ->
      let s = Conditions.summarize db in
      if not (s.c1 && s.c2) then true
      else begin
        let d = Database.schemes db in
        let rng = Random.State.make [| 5 |] in
        let strategy = Enumerate.random_strategy ~rng d in
        let check_move = function
          | None -> true
          | Some (m : Lemmas.move) -> m.tau_after <= m.tau_before
        in
        check_move (Lemmas.lemma2_transform db strategy)
        && check_move (Lemmas.lemma3_transform db strategy)
      end)

let prop_individually_construction =
  qtest "Lemma 4 construction: components individually, tau <= under C1+C2"
    ~count:40 gen_uniform_db (fun db ->
      let d = Database.schemes db in
      let rng = Random.State.make [| 6 |] in
      let s0 = Enumerate.random_strategy ~rng d in
      let s1 = Lemmas.evaluate_components_individually db s0 in
      Strategy.check s1 = Ok ()
      && Scheme.Set.equal (Strategy.schemes s1) d
      && Strategy.evaluates_components_individually s1
      &&
      let c = Conditions.summarize db in
      (not (c.c1 && c.c2)) || Cost.tau db s1 <= Cost.tau db s0)

let prop_to_cp_free_construction =
  qtest "Theorem 2 construction: avoids CPs, tau <= under C1+C2" ~count:40
    gen_uniform_db (fun db ->
      let d = Database.schemes db in
      let rng = Random.State.make [| 7 |] in
      let s0 = Enumerate.random_strategy ~rng d in
      let s1 = Lemmas.to_cp_free db s0 in
      Strategy.check s1 = Ok ()
      && Strategy.avoids_cartesian s1
      &&
      let c = Conditions.summarize db in
      (not (c.c1 && c.c2)) || Cost.tau db s1 <= Cost.tau db s0)

let prop_theorem2_constructive =
  (* The punchline: on C3 databases (hence C1+C2), normalizing the
     tau-optimum yields a CP-free strategy of the SAME cost. *)
  qtest "Theorem 2 constructively on superkey databases" ~count:30
    QCheck2.Gen.(pair (int_range 2 5) (int_range 0 100_000))
    (fun (n, seed) ->
      let rng = Random.State.make [| seed; n; 122 |] in
      let d = Querygraph.random ~extra_edge_prob:0.3 ~rng n in
      let db = Mj_workload.Dbgen.superkey_db ~rng ~rows:5 ~domain:9 d in
      let best = Optimal.optimum_exn db in
      let normalized = Lemmas.to_cp_free db best.strategy in
      Strategy.avoids_cartesian normalized
      && Cost.tau db normalized = best.cost)

(* ------------------------------------------------------------------ *)
(* Cost models                                                          *)
(* ------------------------------------------------------------------ *)

let test_step_costs () =
  Alcotest.(check int) "tuples" 7
    (Costmodel.step_cost Costmodel.Tuples ~left:10 ~right:20 ~out:7);
  Alcotest.(check int) "cout+in" 37
    (Costmodel.step_cost Costmodel.Cout_inclusive ~left:10 ~right:20 ~out:7);
  (* pages of 4: 3 + 3*5 + 7 = 25 *)
  Alcotest.(check int) "nl-io" 25
    (Costmodel.step_cost (Costmodel.Nested_loop_io 4) ~left:10 ~right:20 ~out:7);
  Alcotest.(check int) "hash" 37
    (Costmodel.step_cost Costmodel.Hash_cpu ~left:10 ~right:20 ~out:7)

let test_step_cost_bad_page () =
  match
    Costmodel.step_cost (Costmodel.Nested_loop_io 0) ~left:1 ~right:1 ~out:1
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "page size 0 must be rejected"

let prop_tuples_model_matches_optimal =
  qtest "Costmodel Tuples = Multijoin.Optimal on every subspace" ~count:30
    gen_search_instance (fun (d, oracle, _) ->
      List.for_all
        (fun subspace ->
          let a =
            Option.map
              (fun (r : Optimal.result) -> r.cost)
              (Costmodel.optimum ~subspace ~model:Costmodel.Tuples ~oracle d)
          in
          let b =
            Option.map
              (fun (r : Optimal.result) -> r.cost)
              (Optimal.optimum_with_oracle ~subspace ~oracle d)
          in
          a = b)
        [ Enumerate.All; Enumerate.Linear; Enumerate.Cp_free;
          Enumerate.Linear_cp_free ])

let prop_model_optimum_is_minimum =
  qtest "Costmodel optimum dominates every enumerated strategy" ~count:20
    gen_search_instance (fun (d, oracle, _) ->
      if Mj_relation.Scheme.Set.cardinal d > 5 then true
      else
        List.for_all
          (fun model ->
            match Costmodel.optimum ~model ~oracle d with
            | None -> false
            | Some best ->
                List.for_all
                  (fun s -> Costmodel.strategy_cost model oracle s >= best.cost)
                  (Enumerate.all d))
          [ Costmodel.Cout_inclusive; Costmodel.Nested_loop_io 4;
            Costmodel.Hash_cpu ])

(* Every model's winner and cost on four fixed connected databases, per
   subspace.  The DP keeps the first of several equal-cost splits, so
   these strings pin the split order as well as the optimum. *)
let costmodel_golden_dbs =
  let db name seed d =
    let rng = Random.State.make [| 23; seed |] in
    (name, Mj_workload.Dbgen.uniform_db ~rng ~rows:6 ~domain:3 d)
  in
  [
    db "chain-5" 1 (Querygraph.chain 5);
    db "cycle-5" 2 (Querygraph.cycle 5);
    db "star-5" 3 (Querygraph.star 5);
    db "random-5" 4
      (Querygraph.random ~extra_edge_prob:0.3
         ~rng:(Random.State.make [| 23; 5 |])
         5);
  ]

let all_models =
  [ Costmodel.Tuples; Costmodel.Cout_inclusive; Costmodel.Nested_loop_io 4;
    Costmodel.Hash_cpu ]

let all_subspaces =
  [ Enumerate.All; Enumerate.Linear; Enumerate.Cp_free;
    Enumerate.Linear_cp_free ]

let costmodel_golden =
  [
      ( "chain-5",
        [
          "tuples all: ((c0,c1 * (c1,c2 * c2,c3)) * (c3,c4 * c4,c5)) = 31";
          "tuples linear: ((((c0,c1 * c1,c2) * c2,c3) * c3,c4) * c4,c5) = 32";
          "tuples cp-free: ((c0,c1 * (c1,c2 * c2,c3)) * (c3,c4 * c4,c5)) = 31";
          "tuples linear-cp-free: ((((c0,c1 * c1,c2) * c2,c3) * c3,c4) * c4,c5) = 32";
          "cout+in all: ((c0,c1 * (c1,c2 * c2,c3)) * (c3,c4 * c4,c5)) = 69";
          "cout+in linear: ((((c0,c1 * c1,c2) * c2,c3) * c3,c4) * c4,c5) = 71";
          "cout+in cp-free: ((c0,c1 * (c1,c2 * c2,c3)) * (c3,c4 * c4,c5)) = 69";
          "cout+in linear-cp-free: ((((c0,c1 * c1,c2) * c2,c3) * c3,c4) * c4,c5) = 71";
          "nl-io(4) all: ((c0,c1 * (c1,c2 * c2,c3)) * (c3,c4 * c4,c5)) = 46";
          "nl-io(4) linear: ((((c0,c1 * c1,c2) * c2,c3) * c3,c4) * c4,c5) = 49";
          "nl-io(4) cp-free: ((c0,c1 * (c1,c2 * c2,c3)) * (c3,c4 * c4,c5)) = 46";
          "nl-io(4) linear-cp-free: ((((c0,c1 * c1,c2) * c2,c3) * c3,c4) * c4,c5) = 49";
          "hash-cpu all: ((c0,c1 * (c1,c2 * c2,c3)) * (c3,c4 * c4,c5)) = 69";
          "hash-cpu linear: ((((c0,c1 * c1,c2) * c2,c3) * c3,c4) * c4,c5) = 71";
          "hash-cpu cp-free: ((c0,c1 * (c1,c2 * c2,c3)) * (c3,c4 * c4,c5)) = 69";
          "hash-cpu linear-cp-free: ((((c0,c1 * c1,c2) * c2,c3) * c3,c4) * c4,c5) = 71";
        ] );
      ( "cycle-5",
        [
          "tuples all: ((c0,c1 * c1,c2) * (c0,c4 * (c2,c3 * c3,c4))) = 54";
          "tuples linear: ((((c2,c3 * c3,c4) * c0,c4) * c0,c1) * c1,c2) = 68";
          "tuples cp-free: ((c0,c1 * c1,c2) * (c0,c4 * (c2,c3 * c3,c4))) = 54";
          "tuples linear-cp-free: ((((c2,c3 * c3,c4) * c0,c4) * c0,c1) * c1,c2) = 68";
          "cout+in all: ((c0,c1 * c1,c2) * (c0,c4 * (c2,c3 * c3,c4))) = 114";
          "cout+in linear: ((((c2,c3 * c3,c4) * c0,c4) * c0,c1) * c1,c2) = 142";
          "cout+in cp-free: ((c0,c1 * c1,c2) * (c0,c4 * (c2,c3 * c3,c4))) = 114";
          "cout+in linear-cp-free: ((((c2,c3 * c3,c4) * c0,c4) * c0,c1) * c1,c2) = 142";
          "nl-io(4) all: ((c0,c1 * c1,c2) * (c0,c4 * (c2,c3 * c3,c4))) = 87";
          "nl-io(4) linear: ((((c2,c3 * c3,c4) * c0,c4) * c0,c1) * c1,c2) = 110";
          "nl-io(4) cp-free: ((c0,c1 * c1,c2) * (c0,c4 * (c2,c3 * c3,c4))) = 87";
          "nl-io(4) linear-cp-free: ((((c2,c3 * c3,c4) * c0,c4) * c0,c1) * c1,c2) = 110";
          "hash-cpu all: ((c0,c1 * c1,c2) * (c0,c4 * (c2,c3 * c3,c4))) = 114";
          "hash-cpu linear: ((((c2,c3 * c3,c4) * c0,c4) * c0,c1) * c1,c2) = 142";
          "hash-cpu cp-free: ((c0,c1 * c1,c2) * (c0,c4 * (c2,c3 * c3,c4))) = 114";
          "hash-cpu linear-cp-free: ((((c2,c3 * c3,c4) * c0,c4) * c0,c1) * c1,c2) = 142";
        ] );
      ( "star-5",
        [
          "tuples all: ((((s1,s2,s3,s4 * s3,t3) * s1,t1) * s2,t2) * s4,t4) = 92";
          "tuples linear: ((((s1,s2,s3,s4 * s3,t3) * s1,t1) * s2,t2) * s4,t4) = 92";
          "tuples cp-free: ((((s1,s2,s3,s4 * s3,t3) * s1,t1) * s2,t2) * s4,t4) = 92";
          "tuples linear-cp-free: ((((s1,s2,s3,s4 * s3,t3) * s1,t1) * s2,t2) * s4,t4) = 92";
          "cout+in all: ((((s1,s2,s3,s4 * s3,t3) * s1,t1) * s2,t2) * s4,t4) = 163";
          "cout+in linear: ((((s1,s2,s3,s4 * s3,t3) * s1,t1) * s2,t2) * s4,t4) = 163";
          "cout+in cp-free: ((((s1,s2,s3,s4 * s3,t3) * s1,t1) * s2,t2) * s4,t4) = 163";
          "cout+in linear-cp-free: ((((s1,s2,s3,s4 * s3,t3) * s1,t1) * s2,t2) * s4,t4) = 163";
          "nl-io(4) all: ((((s1,s2,s3,s4 * s3,t3) * s1,t1) * s2,t2) * s4,t4) = 127";
          "nl-io(4) linear: ((((s3,t3 * s1,s2,s3,s4) * s1,t1) * s2,t2) * s4,t4) = 126";
          "nl-io(4) cp-free: ((((s1,s2,s3,s4 * s3,t3) * s1,t1) * s2,t2) * s4,t4) = 127";
          "nl-io(4) linear-cp-free: ((((s3,t3 * s1,s2,s3,s4) * s1,t1) * s2,t2) * s4,t4) = 126";
          "hash-cpu all: ((((s1,s2,s3,s4 * s3,t3) * s1,t1) * s2,t2) * s4,t4) = 163";
          "hash-cpu linear: ((((s1,s2,s3,s4 * s3,t3) * s1,t1) * s2,t2) * s4,t4) = 163";
          "hash-cpu cp-free: ((((s1,s2,s3,s4 * s3,t3) * s1,t1) * s2,t2) * s4,t4) = 163";
          "hash-cpu linear-cp-free: ((((s1,s2,s3,s4 * s3,t3) * s1,t1) * s2,t2) * s4,t4) = 163";
        ] );
      ( "random-5",
        [
          "tuples all: (((e0_1,e0_2,e0_3,e0_4,v0 * (e0_2,e2_3,e2_4,v2 * e0_4,e2_4,v4)) * e0_3,e2_3,v3) * e0_1,v1) = 42";
          "tuples linear: ((((e0_1,e0_2,e0_3,e0_4,v0 * e0_4,e2_4,v4) * e0_2,e2_3,e2_4,v2) * e0_3,e2_3,v3) * e0_1,v1) = 42";
          "tuples cp-free: (((e0_1,e0_2,e0_3,e0_4,v0 * (e0_2,e2_3,e2_4,v2 * e0_4,e2_4,v4)) * e0_3,e2_3,v3) * e0_1,v1) = 42";
          "tuples linear-cp-free: ((((e0_1,e0_2,e0_3,e0_4,v0 * e0_4,e2_4,v4) * e0_2,e2_3,e2_4,v2) * e0_3,e2_3,v3) * e0_1,v1) = 42";
          "cout+in all: (((e0_1,e0_2,e0_3,e0_4,v0 * (e0_2,e2_3,e2_4,v2 * e0_4,e2_4,v4)) * e0_3,e2_3,v3) * e0_1,v1) = 100";
          "cout+in linear: ((((e0_1,e0_2,e0_3,e0_4,v0 * e0_4,e2_4,v4) * e0_2,e2_3,e2_4,v2) * e0_3,e2_3,v3) * e0_1,v1) = 100";
          "cout+in cp-free: (((e0_1,e0_2,e0_3,e0_4,v0 * (e0_2,e2_3,e2_4,v2 * e0_4,e2_4,v4)) * e0_3,e2_3,v3) * e0_1,v1) = 100";
          "cout+in linear-cp-free: ((((e0_1,e0_2,e0_3,e0_4,v0 * e0_4,e2_4,v4) * e0_2,e2_3,e2_4,v2) * e0_3,e2_3,v3) * e0_1,v1) = 100";
          "nl-io(4) all: (((e0_1,e0_2,e0_3,e0_4,v0 * (e0_2,e2_3,e2_4,v2 * e0_4,e2_4,v4)) * e0_3,e2_3,v3) * e0_1,v1) = 70";
          "nl-io(4) linear: ((((e0_1,e0_2,e0_3,e0_4,v0 * e0_4,e2_4,v4) * e0_2,e2_3,e2_4,v2) * e0_3,e2_3,v3) * e0_1,v1) = 72";
          "nl-io(4) cp-free: (((e0_1,e0_2,e0_3,e0_4,v0 * (e0_2,e2_3,e2_4,v2 * e0_4,e2_4,v4)) * e0_3,e2_3,v3) * e0_1,v1) = 70";
          "nl-io(4) linear-cp-free: ((((e0_1,e0_2,e0_3,e0_4,v0 * e0_4,e2_4,v4) * e0_2,e2_3,e2_4,v2) * e0_3,e2_3,v3) * e0_1,v1) = 72";
          "hash-cpu all: (((e0_1,e0_2,e0_3,e0_4,v0 * (e0_2,e2_3,e2_4,v2 * e0_4,e2_4,v4)) * e0_3,e2_3,v3) * e0_1,v1) = 100";
          "hash-cpu linear: ((((e0_1,e0_2,e0_3,e0_4,v0 * e0_4,e2_4,v4) * e0_2,e2_3,e2_4,v2) * e0_3,e2_3,v3) * e0_1,v1) = 100";
          "hash-cpu cp-free: (((e0_1,e0_2,e0_3,e0_4,v0 * (e0_2,e2_3,e2_4,v2 * e0_4,e2_4,v4)) * e0_3,e2_3,v3) * e0_1,v1) = 100";
          "hash-cpu linear-cp-free: ((((e0_1,e0_2,e0_3,e0_4,v0 * e0_4,e2_4,v4) * e0_2,e2_3,e2_4,v2) * e0_3,e2_3,v3) * e0_1,v1) = 100";
        ] );
  ]

let test_costmodel_golden () =
  List.iter
    (fun (name, db) ->
      let d = Database.schemes db in
      let oracle = Cost.cardinality_oracle db in
      let got =
        List.concat_map
          (fun model ->
            List.map
              (fun subspace ->
                Format.asprintf "%s %a: %s" (Costmodel.name model)
                  Enumerate.pp_subspace subspace
                  (match Costmodel.optimum ~subspace ~model ~oracle d with
                  | None -> "none"
                  | Some r ->
                      Printf.sprintf "%s = %d"
                        (Strategy.to_string r.Optimal.strategy)
                        r.Optimal.cost))
              all_subspaces)
          all_models
      in
      Alcotest.(check (list string)) name (List.assoc name costmodel_golden) got)
    costmodel_golden_dbs

(* Unconnected schemes: a chain plus the two-relation component {XY, YZ},
   and on half the cases an isolated W, so that there are two or three
   components.  The Cp_free optimum must exist there (Enumerate.cp_free
   is never empty) and be exact under every model. *)
let gen_unconnected_db =
  let open QCheck2.Gen in
  let* n = int_range 2 4 in
  let* seed = int_range 0 100_000 in
  let* isolated = bool in
  let rng = Random.State.make [| seed; n; 37 |] in
  let extra = [ "XY"; "YZ" ] @ if isolated then [ "W" ] else [] in
  let d = Scheme.Set.union (Querygraph.chain n) (Hypergraph.of_strings extra) in
  return (Mj_workload.Dbgen.uniform_db ~rng ~rows:4 ~domain:3 d)

let prop_costmodel_unconnected =
  qtest "Costmodel optimum on unconnected schemes" ~count:40
    gen_unconnected_db (fun db ->
      let d = Database.schemes db in
      let oracle = Cost.cardinality_oracle db in
      let show =
        Option.map (fun (r : Optimal.result) ->
            (Strategy.to_string r.strategy, r.cost))
      in
      List.for_all
        (fun subspace ->
          show (Costmodel.optimum ~subspace ~model:Costmodel.Tuples ~oracle d)
          = show (Optimal.optimum_with_oracle ~subspace ~oracle d))
        all_subspaces
      && List.for_all
           (fun model ->
             match Costmodel.optimum ~subspace:Enumerate.Cp_free ~model ~oracle d with
             | None -> false
             | Some best ->
                 List.for_all
                   (fun s -> best.cost <= Costmodel.strategy_cost model oracle s)
                   (Enumerate.cp_free d))
           [ Costmodel.Cout_inclusive; Costmodel.Nested_loop_io 4;
             Costmodel.Hash_cpu ])

(* ------------------------------------------------------------------ *)
(* C4 under join-tree connectedness                                     *)
(* ------------------------------------------------------------------ *)

let test_c4jt_consistent_chain () =
  let rng = Random.State.make [| 3 |] in
  let db =
    Mj_workload.Dbgen.consistent_acyclic_db ~rng ~rows:5 ~domain:4
      (Querygraph.chain 4)
  in
  Alcotest.(check bool) "holds" true (Conditions_jt.holds_c4 db)

let test_c4jt_rejects_cyclic () =
  let rng = Random.State.make [| 4 |] in
  let db =
    Mj_workload.Dbgen.uniform_db ~rng ~rows:3 ~domain:3 (Querygraph.cycle 4)
  in
  match Conditions_jt.holds_c4 db with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "cyclic schemes must be rejected"

let test_c4jt_witness_on_sparse_db () =
  (* Raw sparse data has dangling tuples: some join shrinks below an
     input, violating C4. *)
  let rng = Random.State.make [| 6 |] in
  let db =
    Mj_workload.Dbgen.uniform_db ~rng ~rows:4 ~domain:8 (Querygraph.chain 3)
  in
  let violations = Conditions_jt.violations_c4 db in
  if Mj_relation.Consistency.pairwise_consistent db then ()
  else
    Alcotest.(check bool) "witness exists on inconsistent data" true
      (violations <> [])

let prop_c4jt_on_consistent_dbs =
  qtest "alpha-acyclic consistent databases satisfy C4 (jt)" ~count:25
    QCheck2.Gen.(pair (int_range 3 5) (int_range 0 100_000))
    (fun (n, seed) ->
      let rng = Random.State.make [| seed; n; 114 |] in
      let db =
        Mj_workload.Dbgen.consistent_acyclic_db ~rng ~rows:5 ~domain:4
          (Querygraph.chain n)
      in
      Conditions_jt.holds_c4 db)

(* ------------------------------------------------------------------ *)
(* Supply-chain scenario                                                *)
(* ------------------------------------------------------------------ *)

let test_supply_chain_shape () =
  let db = Mj_workload.Scenarios.supply_chain in
  Alcotest.(check int) "five relations" 5 (Database.size db);
  Alcotest.(check bool) "connected" true
    (Hypergraph.connected (Database.schemes db));
  Alcotest.(check bool) "alpha-acyclic" true
    (Mj_hypergraph.Gyo.is_alpha_acyclic (Database.schemes db));
  Alcotest.(check bool) "non-empty join" true
    (not (Relation.is_empty (Database.join_all db)))

let test_supply_chain_conditions () =
  let db = Mj_workload.Scenarios.supply_chain in
  let s = Conditions.summarize db in
  Alcotest.(check bool) "C2 holds" true s.c2;
  Alcotest.(check bool) "C3 fails" false s.c3;
  Alcotest.(check bool) "FDs hold in the data" true
    (List.for_all
       (fun r ->
         List.for_all
           (fun (fd : Fd.fd) ->
             (not
                (Attr.Set.subset
                   (Attr.Set.union fd.lhs fd.rhs)
                   (Relation.scheme r)))
             || Fd.holds_in r fd)
           Mj_workload.Scenarios.supply_chain_fds)
       (Database.relations db))

let test_supply_chain_osborn () =
  let db = Mj_workload.Scenarios.supply_chain in
  match
    Extension.find_osborn_strategy Mj_workload.Scenarios.supply_chain_fds
      (Database.schemes db)
  with
  | None -> Alcotest.fail "FK snowflake admits an Osborn strategy"
  | Some s ->
      Alcotest.(check bool) "steps obey the C2 inequality" true
        (let oracle = Cost.cardinality_oracle db in
         List.for_all
           (fun (d1, d2) ->
             let j = oracle (Mj_relation.Scheme.Set.union d1 d2) in
             j <= oracle d1 || j <= oracle d2)
           (Strategy.steps s))

(* ------------------------------------------------------------------ *)
(* Parallel makespan                                                    *)
(* ------------------------------------------------------------------ *)

module Parallel = Mj_engine.Parallel

let test_makespan_linear_equals_tau () =
  (* A linear strategy has no independent subtrees: critical path =
     total work. *)
  let db = Mj_workload.Scenarios.example1 in
  let s = Strategy.of_string "((AB * BC) * DE) * FG" in
  Alcotest.(check int) "makespan = tau" (Cost.tau db s)
    (Parallel.makespan db s)

let test_makespan_bushy_shorter () =
  let db = Mj_workload.Scenarios.example1 in
  (* S3's two subtrees overlap: 10 and 49 run concurrently. *)
  let s3 = Strategy.of_string "(AB * BC) * (DE * FG)" in
  Alcotest.(check int) "max(10,49) + 490" 539 (Parallel.makespan db s3);
  Alcotest.(check bool) "below tau" true
    (Parallel.makespan db s3 < Cost.tau db s3)

let prop_makespan_bounds =
  qtest "makespan is between the last step and tau" ~count:40 gen_uniform_db
    (fun db ->
      let d = Database.schemes db in
      let rng = Random.State.make [| 9 |] in
      let s = Enumerate.random_strategy ~rng d in
      let m = Parallel.makespan db s in
      let tau = Cost.tau db s in
      m <= tau
      && m >= Relation.cardinality (Database.join_all db))

let prop_makespan_dp_is_minimum =
  qtest "makespan DP dominates every enumerated strategy" ~count:25
    gen_uniform_db (fun db ->
      let d = Database.schemes db in
      let oracle = Cost.cardinality_oracle db in
      match Parallel.optimum_makespan ~oracle d with
      | None -> false
      | Some best ->
          Parallel.makespan_oracle oracle best.Optimal.strategy
          = best.Optimal.cost
          && List.for_all
               (fun s -> Parallel.makespan_oracle oracle s >= best.Optimal.cost)
               (Enumerate.all d))

(* ------------------------------------------------------------------ *)
(* Structural odds and ends                                             *)
(* ------------------------------------------------------------------ *)

let test_to_dot () =
  let s = Strategy.of_string "(AB * CD) * BC" in
  let dot = Strategy.to_dot s in
  Alcotest.(check bool) "digraph" true
    (String.length dot > 0 && String.sub dot 0 7 = "digraph");
  (* The AB * CD step is a Cartesian product: drawn dashed. *)
  let contains needle hay =
    let nl = String.length needle and hl = String.length hay in
    let rec scan i = i + nl <= hl && (String.sub hay i nl = needle || scan (i + 1)) in
    scan 0
  in
  Alcotest.(check bool) "dashed CP" true (contains "style=dashed" dot)

let prop_cp_lower_bound =
  (* "Every strategy must necessarily use at least comp(D) - 1 Cartesian
     products." *)
  qtest "every strategy uses at least comp(D)-1 CPs" ~count:60
    QCheck2.Gen.(pair (int_range 2 6) (int_range 0 100_000))
    (fun (n, seed) ->
      let rng = Random.State.make [| seed; n; 141 |] in
      (* Possibly unconnected: drop the connecting spanning tree by
         sampling two independent graphs side by side. *)
      let d1 = Querygraph.chain (max 1 (n / 2)) in
      let d2 =
        Querygraph.star (max 2 (n - (n / 2)))
      in
      let d = Mj_relation.Scheme.Set.union d1 d2 in
      let s = Enumerate.random_strategy ~rng d in
      Strategy.count_cartesian_steps s >= Hypergraph.comp d - 1)

let test_parse_named_database () =
  let text = "= r\nA,B\n1,2\n\n= s\nB,C\n2,3\n" in
  let named = Csv.parse_named_database text in
  Alcotest.(check (list string)) "names" [ "r"; "s" ] (List.map fst named);
  Alcotest.(check int) "r rows" 1 (Relation.cardinality (List.assoc "r" named))

let test_parse_named_database_duplicate_names_ok () =
  (* Same predicate twice (e.g. for self-join test fixtures). *)
  let text = "= e\nA,B\n1,2\n\n= e\nB,C\n2,3\n" in
  Alcotest.(check int) "two sections" 2
    (List.length (Csv.parse_named_database text))

let test_parse_named_database_empty_name () =
  match Csv.parse_named_database "=\nA\n1\n" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "empty section name must be rejected"

(* ------------------------------------------------------------------ *)
(* Closed forms for strategy subspaces                                  *)
(* ------------------------------------------------------------------ *)

let test_closed_forms_chain () =
  List.iter
    (fun n ->
      let d = Querygraph.chain n in
      Alcotest.(check int)
        (Printf.sprintf "chain %d cp-free = Catalan" n)
        (Search_space.chain_cp_free n)
        (Enumerate.count_cp_free d);
      Alcotest.(check int)
        (Printf.sprintf "chain %d linear cp-free = 2^(n-2)" n)
        (Search_space.chain_linear_cp_free n)
        (Enumerate.count_linear_cp_free d))
    [ 2; 3; 4; 5; 6; 7; 8 ]

let test_closed_forms_star () =
  List.iter
    (fun n ->
      let d = Querygraph.star n in
      Alcotest.(check int)
        (Printf.sprintf "star %d cp-free = (n-1)!" n)
        (Search_space.star_cp_free n)
        (Enumerate.count_cp_free d);
      Alcotest.(check int)
        (Printf.sprintf "star %d linear cp-free = (n-1)!" n)
        (Search_space.star_cp_free n)
        (Enumerate.count_linear_cp_free d))
    [ 2; 3; 4; 5; 6; 7 ]

let test_closed_forms_cycle () =
  List.iter
    (fun n ->
      let d = Querygraph.cycle n in
      Alcotest.(check int)
        (Printf.sprintf "cycle %d cp-free = C(2n-3, n-2)" n)
        (Search_space.cycle_cp_free n)
        (Enumerate.count_cp_free d);
      Alcotest.(check int)
        (Printf.sprintf "cycle %d linear cp-free = n 2^(n-3)" n)
        (Search_space.cycle_linear_cp_free n)
        (Enumerate.count_linear_cp_free d))
    [ 3; 4; 5; 6; 7; 8 ]

let test_catalan () =
  Alcotest.(check (list int)) "first Catalan numbers"
    [ 1; 1; 2; 5; 14; 42; 132 ]
    (List.map Search_space.catalan [ 0; 1; 2; 3; 4; 5; 6 ])

(* ------------------------------------------------------------------ *)
(* Spanning-tree IKKBZ                                                  *)
(* ------------------------------------------------------------------ *)

let cyclic_model ~seed n =
  let rng = Random.State.make [| seed; n; 151 |] in
  let d = Querygraph.cycle n in
  let cards =
    List.map
      (fun s -> (s, float_of_int (1 lsl (2 + Random.State.int rng 4))))
      (Mj_relation.Scheme.Set.elements d)
  in
  let card s = List.assoc s cards in
  let table = Hashtbl.create 16 in
  let selectivity s1 s2 =
    let key =
      let a = Mj_relation.Scheme.to_string s1
      and b = Mj_relation.Scheme.to_string s2 in
      if a <= b then (a, b) else (b, a)
    in
    match Hashtbl.find_opt table key with
    | Some v -> v
    | None ->
        let v = 1.0 /. float_of_int (1 lsl (1 + Hashtbl.hash key mod 4)) in
        Hashtbl.add table key v;
        v
  in
  (d, card, selectivity)

let test_spanning_tree_ikkbz_on_cycle () =
  let d, card, selectivity = cyclic_model ~seed:3 6 in
  let order = Ikkbz.order_on_spanning_tree ~card ~selectivity d in
  Alcotest.(check int) "covers all relations" 6 (List.length order);
  (* Prefixes stay connected in the original graph (the tree is a
     subgraph of it). *)
  let rec prefixes acc = function
    | [] -> true
    | s :: rest ->
        let acc = Mj_relation.Scheme.Set.add s acc in
        Hypergraph.connected acc && prefixes acc rest
  in
  Alcotest.(check bool) "connected prefixes" true
    (prefixes Mj_relation.Scheme.Set.empty order)

let prop_spanning_tree_ikkbz_reasonable =
  (* The heuristic ignores the dropped edge while ordering, so it can be
     several times off the exact linear DP; what must always hold is
     membership in the linear CP-free space (never below the DP) and a
     bounded blow-up on these small cycles. *)
  qtest "spanning-tree IKKBZ bounded vs linear DP on cycles" ~count:30
    QCheck2.Gen.(pair (int_range 4 7) (int_range 0 10_000))
    (fun (n, seed) ->
      let d, card, selectivity = cyclic_model ~seed n in
      let oracle = Estimate.graph_model ~card ~selectivity d in
      let order = Ikkbz.order_on_spanning_tree ~card ~selectivity d in
      let cost = Cost.tau_oracle oracle (Strategy.left_deep order) in
      match Selinger.plan ~cp:`Never ~oracle d with
      | Some dp -> cost <= 10 * dp.Optimal.cost && cost >= dp.Optimal.cost
      | None -> false)

let test_spanning_tree_rejects_unconnected () =
  let d =
    Mj_relation.Scheme.Set.union (Querygraph.chain 2)
      (Querygraph.star 2)
  in
  match
    Ikkbz.order_on_spanning_tree ~card:(fun _ -> 4.0)
      ~selectivity:(fun _ _ -> 0.5)
      d
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "unconnected graphs must be rejected"

(* ------------------------------------------------------------------ *)
(* Monotone-decreasing necessary condition                              *)
(* ------------------------------------------------------------------ *)

let test_decreasing_possible () =
  (* Example 1's final result (490) dwarfs the bases: impossible. *)
  Alcotest.(check bool) "example 1: impossible" false
    (Monotone.decreasing_possible Mj_workload.Scenarios.example1);
  (* A superkey chain shrinks or preserves: possible. *)
  let rng = Random.State.make [| 11 |] in
  let db = Mj_workload.Dbgen.superkey_db ~rng ~rows:5 ~domain:9 (Querygraph.chain 3) in
  Alcotest.(check bool) "superkey chain: possible" true
    (Monotone.decreasing_possible db)

let prop_decreasing_requires_possible =
  qtest "a monotone-decreasing optimum implies the necessary condition"
    ~count:40 gen_uniform_db (fun db ->
      (not (Monotone.exists_optimal_monotone_decreasing db))
      || Monotone.decreasing_possible db)

(* ------------------------------------------------------------------ *)
(* Berge acyclicity, correlated data, lossless strategies               *)
(* ------------------------------------------------------------------ *)

let test_berge_hierarchy () =
  (* {AB, ABC}: gamma-acyclic but Berge-cyclic (two shared attrs). *)
  let d = Hypergraph.of_strings [ "AB"; "ABC" ] in
  Alcotest.(check bool) "gamma acyclic" true (Acyclicity.is_gamma_acyclic d);
  Alcotest.(check bool) "not Berge" false (Acyclicity.is_berge_acyclic d);
  (* Chains are Berge-acyclic. *)
  Alcotest.(check bool) "chain Berge" true
    (Acyclicity.is_berge_acyclic (Querygraph.chain 5));
  (* The triangle is not (cycle through three attributes). *)
  Alcotest.(check bool) "triangle not Berge" false
    (Acyclicity.is_berge_acyclic (Hypergraph.of_strings [ "AB"; "BC"; "AC" ]))

let prop_berge_implies_gamma =
  qtest "Berge-acyclic implies gamma-acyclic" ~count:60
    QCheck2.Gen.(pair (int_range 2 5) (int_range 0 100_000))
    (fun (n, seed) ->
      let rng = Random.State.make [| seed; n; 161 |] in
      let d = Querygraph.random ~extra_edge_prob:0.4 ~rng n in
      (not (Acyclicity.is_berge_acyclic d)) || Acyclicity.is_gamma_acyclic d)

let test_correlated_generator () =
  let rng = Random.State.make [| 12 |] in
  let scheme = Scheme.of_string "AB" in
  (* noise = 0: both columns identical. *)
  let r0 =
    Database.find
      (Database.of_coded
         (Coded.of_ints
            [ (scheme, Mj_workload.Datagen.correlated ~rng ~rows:30 ~domain:8 ~noise:0.0 scheme) ]))
      scheme
  in
  Alcotest.(check bool) "fully correlated" true
    (Relation.for_all
       (fun tu ->
         Value.equal (Tuple.get tu (Attr.make "A")) (Tuple.get tu (Attr.make "B")))
       r0);
  (match
     Mj_workload.Datagen.correlated ~rng ~rows:1 ~domain:2 ~noise:1.5 scheme
   with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "noise outside [0,1] must be rejected")

let test_lossless_step () =
  let fds = Fd.of_strings [ ("B", "C") ] in
  let d1 = Scheme.Set.of_strings [ "AB" ] in
  let d2 = Scheme.Set.of_strings [ "BC" ] in
  Alcotest.(check bool) "keyed step lossless" true
    (Lossless.step_is_lossless fds d1 d2);
  Alcotest.(check bool) "no FDs: lossy" false
    (Lossless.step_is_lossless [] d1 d2)

let test_lossless_supply_chain_contains_osborn () =
  let fds = Mj_workload.Scenarios.supply_chain_fds in
  let d = Database.schemes Mj_workload.Scenarios.supply_chain in
  match Extension.find_osborn_strategy fds d with
  | None -> Alcotest.fail "expected an Osborn strategy"
  | Some s ->
      Alcotest.(check bool) "Osborn strategies are lossless" true
        (Lossless.strategy_is_lossless fds s)

let prop_lossless_on_superkey_chains =
  qtest "superkey chains: best lossless = optimum" ~count:15
    QCheck2.Gen.(int_range 0 10_000)
    (fun seed ->
      let rng = Random.State.make [| seed; 162 |] in
      let d = Querygraph.chain 4 in
      let db = Mj_workload.Dbgen.superkey_db ~rng ~rows:5 ~domain:9 d in
      let fds =
        List.concat_map
          (fun scheme ->
            List.map
              (fun a -> Fd.fd (Attr.Set.singleton a) scheme)
              (Attr.Set.elements scheme))
          (Scheme.Set.elements d)
      in
      match Lossless.gap_to_optimum fds db with
      | Some (best, opt) -> best = opt
      | None -> false)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "mj_extras"
    [
      ( "random-search",
        [
          Alcotest.test_case "neighbors of 3-relation tree" `Quick
            test_neighbors_shapes;
          Alcotest.test_case "no neighbours for pairs" `Quick
            test_neighbors_none_for_pairs;
          Alcotest.test_case "random neighbour fixpoint" `Quick
            test_random_neighbor_fixpoint;
          prop_move_set_reaches_all_shapes;
          prop_ii_dominated_by_optimum;
          prop_ii_local_minimum_small;
          Alcotest.test_case "local minimum above the optimum" `Quick
            test_ii_local_minimum_above_optimum;
          Alcotest.test_case "finds the optimum on fixed instances" `Quick
            test_ii_finds_optimum_fixed;
          prop_sa_dominated_by_optimum;
        ] );
      ( "extension-joins",
        [
          Alcotest.test_case "superkey step" `Quick test_superkey_step;
          Alcotest.test_case "extension step" `Quick test_extension_step;
          Alcotest.test_case "find Osborn strategy" `Quick
            test_find_osborn_strategy;
          Alcotest.test_case "extension weaker than Osborn" `Quick
            test_find_extension_strategy_weaker;
          Alcotest.test_case "singleton database" `Quick
            test_singleton_database;
          prop_osborn_steps_satisfy_c2_inequality;
        ] );
      ( "csv",
        [
          Alcotest.test_case "parse" `Quick test_csv_parse;
          Alcotest.test_case "negative int" `Quick test_csv_negative_int;
          Alcotest.test_case "whitespace" `Quick test_csv_whitespace;
          Alcotest.test_case "errors" `Quick test_csv_errors;
          Alcotest.test_case "roundtrip" `Quick test_csv_roundtrip;
          Alcotest.test_case "separator in value" `Quick
            test_csv_rejects_separator_in_value;
          Alcotest.test_case "database text roundtrip" `Quick
            test_database_text_roundtrip;
          Alcotest.test_case "database text errors" `Quick
            test_database_text_errors;
          prop_csv_roundtrip_random;
        ] );
      ( "lemmas",
        [
          prop_lemma1_follows_from_c1;
          prop_lemma1_strict_follows_from_c1';
          Alcotest.test_case "lemma 2 on example 1" `Quick
            test_lemma2_on_example1;
          Alcotest.test_case "lemma 2 no match" `Quick test_lemma2_no_match;
          Alcotest.test_case "lemma 3 on example 1" `Quick
            test_lemma3_on_example1;
          prop_lemma_moves_never_hurt_under_c1c2;
          prop_individually_construction;
          prop_to_cp_free_construction;
          prop_theorem2_constructive;
        ] );
      ( "cost-models",
        [
          Alcotest.test_case "step costs" `Quick test_step_costs;
          Alcotest.test_case "bad page size" `Quick test_step_cost_bad_page;
          prop_tuples_model_matches_optimal;
          prop_model_optimum_is_minimum;
          Alcotest.test_case "pinned winners" `Quick test_costmodel_golden;
          prop_costmodel_unconnected;
        ] );
      ( "c4-join-tree",
        [
          Alcotest.test_case "consistent chain" `Quick
            test_c4jt_consistent_chain;
          Alcotest.test_case "rejects cyclic" `Quick test_c4jt_rejects_cyclic;
          Alcotest.test_case "witness on sparse data" `Quick
            test_c4jt_witness_on_sparse_db;
          prop_c4jt_on_consistent_dbs;
        ] );
      ( "supply-chain",
        [
          Alcotest.test_case "shape" `Quick test_supply_chain_shape;
          Alcotest.test_case "conditions" `Quick test_supply_chain_conditions;
          Alcotest.test_case "Osborn strategy" `Quick test_supply_chain_osborn;
        ] );
      ( "parallel",
        [
          Alcotest.test_case "linear makespan = tau" `Quick
            test_makespan_linear_equals_tau;
          Alcotest.test_case "bushy makespan shorter" `Quick
            test_makespan_bushy_shorter;
          prop_makespan_bounds;
          prop_makespan_dp_is_minimum;
        ] );
      ( "structure",
        [
          Alcotest.test_case "to_dot" `Quick test_to_dot;
          prop_cp_lower_bound;
          Alcotest.test_case "named database parse" `Quick
            test_parse_named_database;
          Alcotest.test_case "duplicate names allowed" `Quick
            test_parse_named_database_duplicate_names_ok;
          Alcotest.test_case "empty name rejected" `Quick
            test_parse_named_database_empty_name;
        ] );
      ( "unconnected-spaces",
        [
          Alcotest.test_case
            "Example 1 has exactly the paper's three CP-avoiding strategies"
            `Quick
            (fun () ->
              let d = Database.schemes Mj_workload.Scenarios.example1 in
              let cp_free = Enumerate.cp_free d in
              Alcotest.(check int) "three" 3 (List.length cp_free);
              Alcotest.(check int) "count agrees" 3 (Enumerate.count_cp_free d);
              (* They are S1, S2, S3 of the paper, up to commutativity. *)
              List.iter
                (fun src ->
                  let s = Strategy.of_string src in
                  Alcotest.(check bool) (src ^ " present") true
                    (List.exists (Strategy.equal_commutative s) cp_free))
                [
                  "((AB * BC) * DE) * FG";
                  "((AB * BC) * FG) * DE";
                  "(AB * BC) * (DE * FG)";
                ]);
          Alcotest.test_case "two-component scheme has one CP-avoider" `Quick
            (fun () ->
              let d = Hypergraph.of_strings [ "AB"; "BC"; "DE" ] in
              Alcotest.(check int) "one" 1 (List.length (Enumerate.cp_free d));
              Alcotest.(check int) "linear too" 1
                (List.length (Enumerate.linear_cp_free d)));
        ] );
      ( "roundtrip",
        [
          qtest "of_string (to_string s) = s for random strategies" ~count:100
            QCheck2.Gen.(pair (int_range 2 6) (int_range 0 100_000))
            (fun (n, seed) ->
              let rng = Random.State.make [| seed; n; 171 |] in
              let d = Querygraph.clique n in
              let s = Enumerate.random_strategy ~rng d in
              (* Clique schemes use multi-character attribute names, so
                 this also exercises the comma syntax. *)
              Strategy.equal s (Strategy.of_string (Strategy.to_string s)));
          qtest "dot output well-formed for random strategies" ~count:50
            QCheck2.Gen.(int_range 0 100_000)
            (fun seed ->
              let rng = Random.State.make [| seed; 172 |] in
              let d = Querygraph.chain 5 in
              let s = Enumerate.random_strategy ~rng d in
              let dot = Strategy.to_dot s in
              String.length dot > 0
              && String.sub dot 0 7 = "digraph"
              && dot.[String.length dot - 2] = '}');
        ] );
      ( "closed-forms",
        [
          Alcotest.test_case "catalan" `Quick test_catalan;
          Alcotest.test_case "chain" `Quick test_closed_forms_chain;
          Alcotest.test_case "star" `Quick test_closed_forms_star;
          Alcotest.test_case "cycle" `Quick test_closed_forms_cycle;
        ] );
      ( "spanning-tree-ikkbz",
        [
          Alcotest.test_case "cycle order" `Quick
            test_spanning_tree_ikkbz_on_cycle;
          prop_spanning_tree_ikkbz_reasonable;
          Alcotest.test_case "rejects unconnected" `Quick
            test_spanning_tree_rejects_unconnected;
        ] );
      ( "monotone-necessary",
        [
          Alcotest.test_case "decreasing possible" `Quick
            test_decreasing_possible;
          prop_decreasing_requires_possible;
        ] );
      ( "berge-correlated-lossless",
        [
          Alcotest.test_case "Berge hierarchy" `Quick test_berge_hierarchy;
          prop_berge_implies_gamma;
          Alcotest.test_case "correlated generator" `Quick
            test_correlated_generator;
          Alcotest.test_case "lossless step" `Quick test_lossless_step;
          Alcotest.test_case "Osborn implies lossless" `Quick
            test_lossless_supply_chain_contains_osborn;
          prop_lossless_on_superkey_chains;
        ] );
    ]

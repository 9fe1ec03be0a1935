(* Worst-case-optimal generic join: equivalence and law suite.

   Three layers, mirroring the implementation:

   - trie-iterator laws against a sorted-list oracle (next is
     exhaustive, seek is monotone and lands on the least key ≥ v);
   - the frame kernel and the seed reference backtracker against the
     binary join, on chain / star / cycle / clique / random databases,
     across {seed, frame} × {1, 4} domains through
     the full engine stack;
   - the AGM bound against actual output cardinalities (the bound is a
     bound), plus the Wcoj policy's lowering contract. *)

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

let shape kind n =
  match kind with
  | 0 -> Querygraph.chain n
  | 1 -> Querygraph.star n
  | 2 -> Querygraph.cycle (max 3 n)
  | 3 -> Querygraph.clique (max 3 (min 4 n))
  | _ ->
      Querygraph.random ~extra_edge_prob:0.4
        ~rng:(Random.State.make [| 97; n |])
        n

(* A database over a chain / star / cycle / clique / random shape in a
   random regime, plus a pick for property-local choices. *)
let gen_db_pick =
  let open QCheck2.Gen in
  let* kind = int_range 0 4 in
  let* n = int_range 2 5 in
  let* regime = int_range 0 2 in
  let* seed = int_range 0 100_000 in
  let* pick = int_range 0 1_000_000 in
  let rng = Random.State.make [| seed; n; kind; regime |] in
  let d = shape kind n in
  let db =
    match regime with
    | 0 -> Dbgen.uniform_db ~rng ~rows:6 ~domain:3 d
    | 1 -> Dbgen.skewed_db ~rng ~rows:6 ~domain:4 ~skew:1.5 d
    | _ -> Dbgen.superkey_db ~rng ~rows:6 ~domain:10 d
  in
  return (db, pick)

let gen_db = QCheck2.Gen.map fst gen_db_pick

let schemes_of db = Database.schemes db
let scheme_list db = Scheme.Set.elements (Database.schemes db)

(* A (possibly permuted) elimination order for the database's universe,
   selected by [pick]: 0 keeps the planner's order, otherwise rotate. *)
let some_order db pick =
  let order = Planner.elimination_order (schemes_of db) in
  let k = List.length order in
  let r = pick mod k in
  let rec rot n l = if n = 0 then l else match l with
    | [] -> []
    | x :: tl -> rot (n - 1) (tl @ [ x ])
  in
  rot r order

(* ------------------------------------------------------------------ *)
(* Trie iterator laws                                                   *)
(* ------------------------------------------------------------------ *)

(* Walk a trie depth-first and collect every full path — must equal the
   frame's rows permuted into the induced column order and re-sorted. *)
let paths_of_trie t =
  let w = Frame.Trie.arity t in
  let path = Array.make (max 1 w) 0 in
  let out = ref [] in
  let rec go d =
    Frame.Trie.open_ t;
    while not (Frame.Trie.at_end t) do
      path.(d) <- Frame.Trie.key t;
      if d = w - 1 then out := Array.copy path :: !out else go (d + 1);
      Frame.Trie.next t
    done;
    Frame.Trie.up t
  in
  if w > 0 then go 0;
  List.rev !out

let rows_of_frame_in_order f order =
  let r = Frame.to_relation f in
  let dict = Frame.dict f in
  let induced =
    List.filter (fun a -> Attr.Set.mem a (Frame.scheme f)) order
  in
  List.sort compare
    (List.map
       (fun t ->
         Array.of_list
           (List.map
              (fun a ->
                match Frame.Dict.code dict (Tuple.get t a) with
                | Some c -> c
                | None -> Alcotest.fail "value not in the dictionary")
              induced))
       (Relation.tuples r))

let trie_next_exhaustive =
  qtest "trie DFS enumerates exactly the permuted sorted rows"
    gen_db_pick (fun (db, pick) ->
      let fdb = Frame.Db.of_database db in
      let order = some_order db pick in
      let rels = scheme_list db in
      let s = List.nth rels (pick mod List.length rels) in
      let f = Frame.Db.find fdb s in
      let t = Frame.Trie.of_frame ~order f in
      paths_of_trie t = rows_of_frame_in_order f order)

let trie_seek_law =
  qtest "seek lands on the least key ≥ v and is monotone" gen_db_pick
    (fun (db, pick) ->
      let fdb = Frame.Db.of_database db in
      let order = some_order db pick in
      let rels = scheme_list db in
      let s = List.nth rels (pick mod List.length rels) in
      let f = Frame.Db.find fdb s in
      let t = Frame.Trie.of_frame ~order f in
      (* At the root level: collect the sorted first-column keys, then
         seek to every target in 0 .. max+1 from a fresh iterator and
         compare with the oracle (first key ≥ v). *)
      let keys =
        let acc = ref [] in
        Frame.Trie.open_ t;
        while not (Frame.Trie.at_end t) do
          acc := Frame.Trie.key t :: !acc;
          Frame.Trie.next t
        done;
        Frame.Trie.up t;
        List.rev !acc
      in
      match keys with
      | [] -> true
      | _ ->
          let hi = List.fold_left max 0 keys in
          let oracle v = List.find_opt (fun k -> k >= v) keys in
          List.for_all
            (fun v ->
              Frame.Trie.open_ t;
              Frame.Trie.seek t v;
              let got =
                if Frame.Trie.at_end t then None else Some (Frame.Trie.key t)
              in
              (* Monotonicity: a second seek to anything ≤ the current
                 key must not move. *)
              let still =
                match got with
                | None -> true
                | Some k ->
                    Frame.Trie.seek t (k - 1);
                    (not (Frame.Trie.at_end t)) && Frame.Trie.key t = k
              in
              Frame.Trie.up t;
              got = oracle v && still)
            (List.init (hi + 2) Fun.id))

(* ------------------------------------------------------------------ *)
(* Kernel ≡ binary join                                                 *)
(* ------------------------------------------------------------------ *)

let frame_kernel_agrees =
  qtest "Frame.generic_join ≡ Frame.Db.join_schemes over rotated orders"
    gen_db_pick (fun (db, pick) ->
      let fdb = Frame.Db.of_database db in
      let order = some_order db pick in
      let d = schemes_of db in
      Frame.equal
        (Frame.Db.generic_join fdb ~order d)
        (Frame.Db.join_schemes fdb d))

let engine_generic_join_agrees =
  qtest "engine generic join ≡ Database.join_all" gen_db (fun db ->
      let d = schemes_of db in
      let order = Planner.elimination_order d in
      let plan = Physical.Generic_join (Scheme.Set.elements d, order) in
      let result, _ = Engine.execute_plan (Engine.Config.make ()) db plan in
      Relation.equal result (Database.join_all db))

let engine_matrix_agrees =
  qtest "wcoj policy ≡ hash policy across planes × domains"
    ~count:60 gen_db (fun db ->
      let strategy = Strategy.left_deep (scheme_list db) in
      let reference = Cost.eval db strategy in
      List.for_all
        (fun domains ->
          let cfg = Engine.Config.make ~domains ~policy:Wcoj () in
          Relation.equal (fst (Engine.run cfg db strategy)) reference)
        [ 1; 4 ])

let planes_same_tau =
  qtest "wcoj τ and per-step log agree across planes" ~count:60 gen_db
    (fun db ->
      let strategy = Strategy.left_deep (scheme_list db) in
      let run domains =
        let cfg = Engine.Config.make ~domains ~policy:Wcoj () in
        snd (Engine.run cfg db strategy)
      in
      let s = run 1 and f = run 4 in
      s.Engine.tuples_generated = f.Engine.tuples_generated
      && s.Engine.per_step = f.Engine.per_step)

(* ------------------------------------------------------------------ *)
(* Kernel pins: rows and counters on fixed inputs                       *)
(* ------------------------------------------------------------------ *)

(* [generic_join] and [topk] share one leapfrog DFS; these literals pin
   what each entry returns and counts — row count, result digest,
   leapfrog seeks, aligned keys and sorted rows — so neither entry's
   work may move.  [run_pin] runs one entry on fresh stats. *)
let run_pin entry =
  let st = Frame.fresh_stats () in
  let f = entry st in
  ( Frame.cardinality f,
    ( Printf.sprintf "%016Lx" (Frame.digest f),
      (st.Frame.probes, (st.Frame.probe_hits, st.Frame.sorted_rows)) ) )

let pinned =
  Alcotest.(
    list (pair string (pair int (pair string (pair int (pair int int))))))

let pin_frames db =
  let fdb = Frame.Db.of_database db in
  let d = schemes_of db in
  ( List.map (Frame.Db.find fdb) (Scheme.Set.elements d),
    Planner.elimination_order d )

let skewed_triangle () =
  Dbgen.skewed_db ~rng:(Random.State.make [| 7 |]) ~rows:40 ~domain:8
    ~skew:1.5 (Querygraph.cycle 3)

let star_db () =
  Dbgen.uniform_db ~rng:(Random.State.make [| 11 |]) ~rows:12 ~domain:4
    (Querygraph.star 4)

let kernel_pins =
  Alcotest.test_case "generic_join and topk rows and counters are pinned"
    `Quick (fun () ->
      let tri, tri_order = pin_frames (skewed_triangle ()) in
      let star, _ = pin_frames (star_db ()) in
      let star_sorted =
        Attr.Set.elements (Scheme.Set.universe (schemes_of (star_db ())))
      in
      let card =
        Frame.cardinality (Frame.generic_join ~order:star_sorted star)
      in
      let gj frames order st = Frame.generic_join ~stats:st ~order frames in
      let tk frames order k st = Frame.topk ~stats:st ~order ~k frames in
      let got =
        [
          ("triangle generic_join", run_pin (gj tri tri_order));
          ("star generic_join", run_pin (gj star (List.rev star_sorted)));
          ( "triangle topk k=4",
            run_pin (tk tri (List.sort Attr.compare tri_order) 4) );
        ]
        @ List.map
            (fun k ->
              ( Printf.sprintf "star topk k=%d" k,
                run_pin (tk star star_sorted k) ))
            [ 0; 1; 5; card; card + 3 ]
      in
      Alcotest.check pinned "pins"
        [
          ("triangle generic_join", (30, ("cf57d0805a434e85", (104, (49, 0)))));
          ("star generic_join", (189, ("a3f6c8ccc826edad", (1382, (673, 229)))));
          ("triangle topk k=4", (4, ("b1c62bc12b2707d7", (6, (6, 0)))));
          ("star topk k=0", (0, ("a90aa90b82bab388", (0, (0, 0)))));
          ("star topk k=1", (1, ("78c8f26275b13b74", (0, (6, 0)))));
          ("star topk k=5", (5, ("563300d6603af237", (0, (11, 0)))));
          ("star topk k=189", (189, ("a3f6c8ccc826edad", (38, (317, 0)))));
          ("star topk k=192", (189, ("a3f6c8ccc826edad", (38, (317, 0)))));
        ]
        got)

(* One empty input frame, the chain's last: [generic_join] still builds
   every trie and leapfrogs the levels above it, [topk] returns before
   any work. *)
let kernel_empty_pins =
  Alcotest.test_case "an empty input frame is pinned on both entries" `Quick
    (fun () ->
      let frames, order =
        pin_frames
          (Dbgen.uniform_db ~rng:(Random.State.make [| 5 |]) ~rows:12
             ~domain:4 (Querygraph.chain 3))
      in
      let frames =
        match List.rev frames with
        | f :: rest ->
            List.rev
              (Frame.of_relation (Frame.dict f)
                 (Relation.empty (Frame.scheme f))
              :: rest)
        | [] -> assert false
      in
      let sorted = List.sort Attr.compare order in
      let got =
        [
          ( "generic_join",
            run_pin (fun st -> Frame.generic_join ~stats:st ~order frames) );
          ( "topk",
            run_pin (fun st -> Frame.topk ~stats:st ~order:sorted ~k:3 frames)
          );
        ]
      in
      Alcotest.check pinned "pins"
        [
          ("generic_join", (0, ("f3fe585164ddb3e3", (6, (4, 10)))));
          ("topk", (0, ("f3fe585164ddb3e3", (0, (0, 0)))));
        ]
        got)

let kernel_errors =
  Alcotest.test_case "each entry's Invalid_argument messages" `Quick
    (fun () ->
      let frames, order = pin_frames (star_db ()) in
      let other, _ = pin_frames (skewed_triangle ()) in
      let msg f =
        match f () with
        | _ -> "no exception"
        | exception Invalid_argument m -> m
      in
      (* The dictionary check runs before the order check. *)
      let cases entry =
        [
          msg (fun () -> entry ~order []);
          msg (fun () -> entry ~order (List.hd frames :: other));
          msg (fun () -> entry ~order:(List.tl order) frames);
        ]
      in
      Alcotest.(check (list string))
        "messages"
        [
          "Frame.generic_join: no frames";
          "Frame.generic_join: frames use different dictionaries";
          "Frame.generic_join: order is not a permutation of the attributes";
          "Frame.topk: no frames";
          "Frame.topk: frames use different dictionaries";
          "Frame.topk: order is not a permutation of the attributes";
        ]
        (cases (fun ~order fs -> Frame.generic_join ~order fs)
        @ cases (fun ~order fs -> Frame.topk ~order ~k:2 fs)))

(* ------------------------------------------------------------------ *)
(* Planner lowering contract                                            *)
(* ------------------------------------------------------------------ *)

let lowering_shape =
  qtest "Wcoj lowers cyclic schemes to one Generic_join, acyclic to binary"
    gen_db (fun db ->
      let d = schemes_of db in
      let strategy = Strategy.left_deep (scheme_list db) in
      let plan = Planner.lower ~policy:Wcoj db strategy in
      match plan with
      | Physical.Generic_join (ss, order) ->
          Planner.is_cyclic d
          && Scheme.Set.equal (Scheme.Set.of_list ss) d
          && List.sort Attr.compare order
             = Attr.Set.elements (Scheme.Set.universe d)
      | _ ->
          (* The cost-based arm: binary joins only. *)
          let rec no_generic = function
            | Physical.Scan _ -> true
            | Physical.Join (l, r) -> no_generic l && no_generic r
            | Physical.Generic_join _ | Physical.Semijoin_program _
            | Physical.Ranked_enumerate _ ->
                false
          in
          (not (Planner.is_cyclic d)) && no_generic plan)

let elimination_order_is_permutation =
  qtest "elimination_order is a permutation, most-shared first" gen_db
    (fun db ->
      let d = schemes_of db in
      let order = Planner.elimination_order d in
      let count a =
        List.length
          (List.filter (fun s -> Attr.Set.mem a s) (scheme_list db))
      in
      List.sort Attr.compare order
      = Attr.Set.elements (Scheme.Set.universe d)
      &&
      let rec non_increasing = function
        | a :: (b :: _ as tl) -> count a >= count b && non_increasing tl
        | _ -> true
      in
      non_increasing order)

(* ------------------------------------------------------------------ *)
(* The AGM bound is a bound                                             *)
(* ------------------------------------------------------------------ *)

let agm_bounds_output =
  qtest "AGM bound ≥ actual output cardinality (all sub-databases)"
    gen_db (fun db ->
      let cache = Cost.Cache.create db in
      let univ = Cost.Cache.universe cache in
      let n = Bitdb.size univ in
      let ok = ref true in
      for mask = 1 to (1 lsl n) - 1 do
        match Cost.Cache.agm_mask cache mask with
        | None -> ()
        | Some bound ->
            let actual = float_of_int (Cost.Cache.card_mask cache mask) in
            (* Guard against float rounding on the half-integral
               exponents: the bound may only be below the actual count
               by strictly less than one tuple's worth of slack. *)
            if bound +. 1e-6 < actual then ok := false
      done;
      !ok)

let agm_triangle_value =
  Alcotest.test_case "triangle AGM bound is N^3/2" `Quick (fun () ->
      (* Three relations of N rows each over the triangle: the minimum
         fractional cover is (1/2, 1/2, 1/2), so the bound is N^{3/2}. *)
      let d = Querygraph.cycle 3 in
      let rng = Random.State.make [| 42 |] in
      let db = Dbgen.uniform_db ~rng ~rows:9 ~domain:3 d in
      let cache = Cost.Cache.create db in
      match Cost.Cache.agm cache (schemes_of db) with
      | None -> Alcotest.fail "triangle should be priced"
      | Some b ->
          let expected =
            List.fold_left
              (fun acc r ->
                acc *. Float.sqrt (float_of_int (Relation.cardinality r)))
              1.0 (Database.relations db)
          in
          Alcotest.(check (float 1e-6)) "N^{3/2}" expected b)

let cover_feasible =
  qtest "fractional_cover returns a feasible cover" gen_db (fun db ->
      let univ = Bitdb.make (schemes_of db) in
      let n = Bitdb.size univ in
      let full = (1 lsl n) - 1 in
      match Cover.fractional_cover univ full ~weight:(fun _ -> 1.0) with
      | None -> n > Cover.max_lp_relations
      | Some (x, w) ->
          Array.for_all (fun v -> v >= 0.0 && v <= 1.0) x
          && Float.abs (Array.fold_left ( +. ) 0.0 x -. w) < 1e-9
          && List.for_all
               (fun m ->
                 let s = ref 0.0 in
                 for i = 0 to n - 1 do
                   if m land (1 lsl i) <> 0 then s := !s +. x.(i)
                 done;
                 !s >= 1.0)
               (Cover.constraint_masks univ full))

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "wcoj"
    [
      ("trie", [ trie_next_exhaustive; trie_seek_law ]);
      ( "kernel",
        [ frame_kernel_agrees; engine_generic_join_agrees; engine_matrix_agrees;
          planes_same_tau; kernel_pins; kernel_empty_pins; kernel_errors ] );
      ("planner", [ lowering_shape; elimination_order_is_permutation ]);
      ("agm", [ agm_bounds_output; agm_triangle_value; cover_feasible ]);
    ]

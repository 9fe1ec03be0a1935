(* Equivalence suite for the columnar data plane.

   Every property pits a Frame operation against its seed counterpart
   (balanced-tree Relations) on random chain / star / cycle databases
   across the uniform / skewed / superkey regimes, and checks the radix
   join's determinism contract: bit-identical frames at any domain
   count and partition threshold. *)

open Mj_relation
open Mj_hypergraph
open Multijoin
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
  | _ -> Querygraph.cycle (max 3 n)

(* A random database over a chain/star/cycle query graph in one of the
   three data regimes, plus an int used by properties to pick
   relations, schemes, or projections. *)
let gen_db_pick =
  let open QCheck2.Gen in
  let* kind = int_range 0 2 in
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

let pick_two db pick =
  let rels = Array.of_list (Database.relations db) in
  let k = Array.length rels in
  (rels.(pick mod k), rels.(pick / 7 mod k))

(* A non-empty subset selected by the low bits of [pick]. *)
let pick_subset pick xs =
  let k = List.length xs in
  let bits = 1 + (pick mod ((1 lsl k) - 1)) in
  List.filteri (fun i _ -> bits land (1 lsl i) <> 0) xs

(* ------------------------------------------------------------------ *)
(* Dictionary                                                           *)
(* ------------------------------------------------------------------ *)

let test_dict_interning () =
  let d = Frame.Dict.create () in
  let c1 = Frame.Dict.intern d (Value.int 7) in
  let c2 = Frame.Dict.intern d (Value.str "x") in
  Alcotest.(check int) "same value, same code" c1
    (Frame.Dict.intern d (Value.int 7));
  Alcotest.(check int) "codes are dense" 1 c2;
  Alcotest.(check int) "size counts distinct values" 2 (Frame.Dict.size d);
  Alcotest.(check bool) "decode inverts intern" true
    (Value.equal (Frame.Dict.value d c2) (Value.str "x"));
  Alcotest.(check (option int)) "code finds interned values" (Some c1)
    (Frame.Dict.code d (Value.int 7));
  Alcotest.(check (option int)) "code misses unseen values" None
    (Frame.Dict.code d (Value.int 99));
  Alcotest.check_raises "decode rejects out-of-range codes"
    (Invalid_argument "Frame.Dict.value: code out of range") (fun () ->
      ignore (Frame.Dict.value d 99))

let test_dict_mismatch () =
  let attr = Attr.make in
  let r =
    Relation.make
      (Attr.Set.of_list [ attr "A" ])
      [ Tuple.of_list [ (attr "A", Value.int 1) ] ]
  in
  let f1 = Frame.of_relation (Frame.Dict.create ()) r in
  let f2 = Frame.of_relation (Frame.Dict.create ()) r in
  Alcotest.check_raises "joining across dictionaries is refused"
    (Invalid_argument "Frame.natural_join: frames use different dictionaries")
    (fun () -> ignore (Frame.natural_join f1 f2))

(* ------------------------------------------------------------------ *)
(* Properties                                                           *)
(* ------------------------------------------------------------------ *)

let round_trip =
  qtest "of_relation/to_relation round-trips every relation" gen_db (fun db ->
      let dict = Frame.Dict.create () in
      List.for_all
        (fun r ->
          let f = Frame.of_relation dict r in
          Frame.cardinality f = Relation.cardinality r
          && Attr.Set.equal (Frame.scheme f) (Relation.scheme r)
          && Relation.equal (Frame.to_relation f) r)
        (Database.relations db))

let join_agrees =
  qtest "natural_join agrees with the seed join" gen_db_pick (fun (db, pick) ->
      let r1, r2 = pick_two db pick in
      let dict = Frame.Dict.create () in
      let f1 = Frame.of_relation dict r1 and f2 = Frame.of_relation dict r2 in
      Relation.equal
        (Frame.to_relation (Frame.natural_join f1 f2))
        (Relation.natural_join r1 r2))

let semijoin_agrees =
  qtest "semijoin agrees with the seed semijoin" gen_db_pick (fun (db, pick) ->
      let r1, r2 = pick_two db pick in
      let dict = Frame.Dict.create () in
      let f1 = Frame.of_relation dict r1 and f2 = Frame.of_relation dict r2 in
      Relation.equal
        (Frame.to_relation (Frame.semijoin f1 f2))
        (Relation.semijoin r1 r2))

let project_agrees =
  qtest "project agrees with the seed projection" gen_db_pick
    (fun (db, pick) ->
      let r, _ = pick_two db pick in
      let x =
        Attr.Set.of_list
          (pick_subset pick (Attr.Set.elements (Relation.scheme r)))
      in
      let f = Frame.of_relation (Frame.Dict.create ()) r in
      Relation.equal (Frame.to_relation (Frame.project f x))
        (Relation.project r x))

let join_all_agrees =
  qtest "Db.join_all agrees with Database.join_all" gen_db (fun db ->
      let fdb = Frame.Db.of_database db in
      Relation.equal
        (Frame.to_relation (Frame.Db.join_all fdb))
        (Database.join_all db))

let oracle_agrees =
  qtest "cardinality_oracle matches the seed tau on every sub-database"
    gen_db_pick (fun (db, pick) ->
      let fdb = Frame.Db.of_database db in
      let sub =
        Scheme.Set.of_list (pick_subset pick (Database.scheme_list db))
      in
      Frame.Db.cardinality_oracle fdb sub
      = Relation.cardinality (Database.join_all (Database.restrict db sub)))

let cache_backends_agree =
  qtest "Cost.Cache backends agree on the complete tau table" ~count:40
    gen_db (fun db ->
      let seedc = Cost.Cache.create ~backend:Cost.Cache.Seed db in
      let framec = Cost.Cache.create ~backend:Cost.Cache.Frame db in
      let u = Cost.Cache.universe seedc in
      List.for_all
        (fun m ->
          Cost.Cache.card_mask seedc (m + 1)
          = Cost.Cache.card_mask framec (m + 1))
        (List.init (Bitdb.full u) Fun.id))

let morsel_deterministic =
  qtest "morsel join is bit-identical at any domain count" gen_db (fun db ->
      let fdb = Frame.Db.of_database db in
      let one = Frame.Db.join_all ~domains:1 fdb in
      List.for_all
        (fun (domains, morsel) ->
          Frame.equal one
            (Frame.Db.join_all ~domains ~morsel fdb))
        [ (2, 2); (4, 1); (4, 3); (8, 2); (3, 1000) ])

(* The pool path of the join records one [build-part] span per index
   range and one [morsel] span per probe morsel, every span tagged with
   the worker lane that ran it; the inline path records none. *)
let count_morsel_spans obs =
  let parts = ref 0 and laned = ref 0 in
  let rec walk (s : Mj_obs.Obs.span_tree) =
    if s.Mj_obs.Obs.name = "morsel" || s.Mj_obs.Obs.name = "build-part" then begin
      incr parts;
      match List.assoc_opt "domain" s.Mj_obs.Obs.attrs with
      | Some (Mj_obs.Json.Num _) -> incr laned
      | _ -> ()
    end;
    List.iter walk s.Mj_obs.Obs.children
  in
  List.iter walk (Mj_obs.Obs.trace obs);
  (!parts, !laned)

let morsel_traced =
  qtest "tracing the morsel join records morsel lanes, same result"
    ~count:60 gen_db (fun db ->
      let fdb = Frame.Db.of_database db in
      let plain = Frame.Db.join_all ~domains:4 ~morsel:2 fdb in
      let obs = Mj_obs.Obs.make ~gc:false () in
      let traced = Frame.Db.join_all ~obs ~domains:4 ~morsel:2 fdb in
      let parts, laned = count_morsel_spans obs in
      Frame.equal plain traced && parts = laned)

let test_morsel_traced_chain () =
  (* A chain join always shares attributes step to step, and 8-row
     probe sides span four 2-row morsels, so the join takes the pool —
     and records lane-tagged morsel spans — exactly when the pool grants
     more than one worker. *)
  let rng = Random.State.make [| 42 |] in
  let db = Dbgen.uniform_db ~rng ~rows:8 ~domain:3 (Querygraph.chain 3) in
  let fdb = Frame.Db.of_database db in
  let obs = Mj_obs.Obs.make ~gc:false () in
  ignore (Frame.Db.join_all ~obs ~domains:4 ~morsel:2 fdb);
  let parts, laned = count_morsel_spans obs in
  Alcotest.(check bool) "morsel spans iff the pool grants workers"
    (Mj_pool.Pool.workers 4 > 1) (parts > 0);
  Alcotest.(check int) "every morsel span carries a lane" parts laned

(* ------------------------------------------------------------------ *)
(* Morsel boundaries                                                    *)
(* ------------------------------------------------------------------ *)

(* Two single-attribute relations sharing attribute K with value
   overlap [lo, hi) — a join whose output size is exactly the overlap,
   convenient for pinning morsel-boundary row counts. *)
let range_db n1 n2 =
  let k = Attr.make "K" in
  let rel lo hi =
    Relation.make
      (Attr.Set.of_list [ k ])
      (List.init (hi - lo) (fun i -> Tuple.of_list [ (k, Value.int (lo + i)) ]))
  in
  (rel 0 n1, rel 0 n2)

let join_rows ~domains ~morsel n1 n2 =
  let r1, r2 = range_db n1 n2 in
  let dict = Frame.Dict.create () in
  let f1 = Frame.of_relation dict r1 and f2 = Frame.of_relation dict r2 in
  let stats = Frame.fresh_stats () in
  let j = Frame.natural_join ~domains ~morsel ~stats f1 f2 in
  (Frame.cardinality j, stats)

let test_morsel_boundaries () =
  let name n = Printf.sprintf "n=%d" n in
  (* empty probe side: the parallel path degenerates to zero morsels and
     an empty (but well-formed) result *)
  let rows, _ = join_rows ~domains:4 ~morsel:4 0 7 in
  Alcotest.(check int) (name 0) 0 rows;
  (* n < morsel, n = k*morsel - 1, k*morsel, k*morsel + 1: claimed morsel
     counts differ, results must not *)
  List.iter
    (fun n ->
      let rows, stats = join_rows ~domains:4 ~morsel:4 n (n + 3) in
      Alcotest.(check int) (name n) n rows;
      (* the probe side is the larger one: n + 3 rows in morsels of 4,
         run as such on the pool, as one inline *)
      let nmor = (n + 3 + 3) / 4 in
      Alcotest.(check int)
        (name n ^ " morsel count")
        (if nmor >= 2 && Mj_pool.Pool.workers 4 > 1 then nmor else 1)
        stats.Frame.morsels)
    [ 1; 3; 7; 8; 9; 16; 17 ]

(* ------------------------------------------------------------------ *)
(* Digest                                                               *)
(* ------------------------------------------------------------------ *)

(* A small mixed Int/Str value pool, so relations share values and the
   dictionary sees both kinds. *)
let digest_values =
  List.map Value.int [ -7; 0; 3; 12; 100 ]
  @ List.map Value.str [ ""; "a"; "b, c"; "zz"; String.make 90 'q' ]

(* A relation over a non-empty subset of {A, B, C} (width 1 included;
   empty states included) with values from [digest_values], plus how
   the dictionary was prepared: 0 fresh, 1 every pool value pre-interned
   in reverse value order (codes then descend as values ascend, so
   decode and digest take the non-monotone re-sort path), 2 interned in
   pool order (Ints first, then strings out of value order). *)
let gen_digest_case =
  let open QCheck2.Gen in
  let* bits = int_range 1 7 in
  let attrs =
    List.filteri (fun i _ -> bits land (1 lsl i) <> 0) [ "A"; "B"; "C" ]
    |> List.map Attr.make
  in
  let gen_tuple =
    let* vals = list_repeat (List.length attrs) (oneofl digest_values) in
    return (Tuple.of_list (List.combine attrs vals))
  in
  let* tuples = list_size (int_range 0 10) gen_tuple in
  let* dict_mode = int_range 0 2 in
  return (Relation.make (Attr.Set.of_list attrs) tuples, dict_mode)

let prepared_dict mode =
  let d = Frame.Dict.create () in
  (match mode with
  | 1 ->
      List.iter
        (fun v -> ignore (Frame.Dict.intern d v))
        (List.rev (List.sort Value.compare digest_values))
  | 2 -> List.iter (fun v -> ignore (Frame.Dict.intern d v)) digest_values
  | _ -> ());
  d

let digest_agrees =
  qtest "Frame.digest equals Relation.digest" ~count:300 gen_digest_case
    (fun (r, mode) ->
      let f = Frame.of_relation (prepared_dict mode) r in
      Int64.equal (Frame.digest f) (Relation.digest r)
      && Relation.equal (Frame.to_relation f) r)

let digest_of_join_agrees =
  qtest "Frame.digest of a join equals the seed join's digest" gen_db_pick
    (fun (db, pick) ->
      let r1, r2 = pick_two db pick in
      let dict = Frame.Dict.create () in
      let f1 = Frame.of_relation dict r1 and f2 = Frame.of_relation dict r2 in
      Int64.equal
        (Frame.digest (Frame.natural_join f1 f2))
        (Relation.digest (Relation.natural_join r1 r2)))

(* The engine's digest finisher: same hash and row count as the decoded
   result of the same plan, on both planes. *)
let execute_digest_agrees =
  qtest "execute_digest agrees with execute_plan on both planes" ~count:60
    gen_db (fun db ->
      let plan =
        Mj_engine.Physical.of_strategy
          (Strategy.left_deep (Database.scheme_list db))
      in
      let frame_r, frame_st = Mj_engine.Frame_engine.execute_plan db plan in
      let frame_d, frame_dst = Mj_engine.Frame_engine.execute_digest db plan in
      let seed_r, seed_st = Mj_engine.Exec.execute db plan in
      let seed_d, seed_dst = Mj_engine.Exec.execute_digest db plan in
      Int64.equal frame_d (Relation.digest frame_r)
      && Int64.equal seed_d (Relation.digest seed_r)
      && Int64.equal frame_d seed_d
      && frame_dst.Mj_engine.Frame_engine.result_rows
         = Relation.cardinality frame_r
      && frame_st.Mj_engine.Frame_engine.result_rows
         = Relation.cardinality frame_r
      && seed_dst.Mj_engine.Exec.result_rows = Relation.cardinality seed_r
      && seed_st.Mj_engine.Exec.result_rows = Relation.cardinality seed_r)

let engines_agree =
  qtest "Frame_engine agrees with Exec on left-deep plans" ~count:60 gen_db
    (fun db ->
      let strategy = Strategy.left_deep (Database.scheme_list db) in
      let plan = Mj_engine.Physical.of_strategy strategy in
      let seed_r, seed_st = Mj_engine.Exec.execute db plan in
      let frame_r, frame_st = Mj_engine.Frame_engine.execute_plan db plan in
      Relation.equal seed_r frame_r
      && seed_st.Mj_engine.Exec.tuples_generated
         = frame_st.Mj_engine.Frame_engine.tuples_generated
      && frame_st.Mj_engine.Frame_engine.result_rows
         = Relation.cardinality frame_r)

(* ------------------------------------------------------------------ *)
(* The sort kernel                                                      *)
(* ------------------------------------------------------------------ *)

(* A raw block and how it was drawn: [w] columns of [nrows] rows,
   filled from [seed] in one of six modes — 0 random codes of per-column
   widths 0–12 bits, 1 one row repeated (all duplicates), 2 random
   codes with every other column zero, 3 and 4 per-column widths adding
   up to exactly 62 (packed path) and 63 (per-column fallback) bits over
   7 or 8 columns, 5 two 31-bit columns (62 bits of large codes).
   Outside mode 1, row 0 carries every column's largest code, so the
   widths are exact.  The buffer has a garbage tail past [nrows * w]. *)
let gen_block =
  let open QCheck2.Gen in
  let* mode = int_range 0 5 in
  let* w =
    match mode with
    | 3 | 4 -> int_range 7 8
    | 5 -> pure 2
    | _ -> int_range 1 8
  in
  let* nrows =
    oneof [ pure 0; pure 1; int_range 2 40; int_range 0 5000 ]
  in
  let* seed = int_range 0 1_000_000 in
  return (mode, w, nrows, seed)

let block_data (mode, w, nrows, seed) =
  let rng = Random.State.make [| seed |] in
  (* exact bit widths adding up to [total] over [w] columns *)
  let spread total =
    Array.init w (fun c -> (total / w) + if c < total mod w then 1 else 0)
  in
  let widths =
    match mode with
    | 3 -> spread 62
    | 4 -> spread 63
    | 5 -> [| 31; 31 |]
    | 2 -> Array.init w (fun c -> if c mod 2 = 1 then 0 else Random.State.int rng 13)
    | _ -> Array.init w (fun _ -> Random.State.int rng 13)
  in
  let top c = (1 lsl widths.(c)) - 1 in
  let draw c =
    ((Random.State.bits rng lsl 30) lor Random.State.bits rng) land top c
  in
  let one = Array.init w draw in
  let data = Array.make ((nrows * w) + 3) 7 in
  for i = 0 to nrows - 1 do
    for c = 0 to w - 1 do
      data.((i * w) + c) <-
        (if mode = 1 then one.(c) else if i = 0 then top c else draw c)
    done
  done;
  data

let rows_of w n data =
  List.init n (fun i -> List.init w (fun c -> data.((i * w) + c)))

let print_block (mode, w, nrows, seed) =
  Printf.sprintf "mode=%d w=%d nrows=%d seed=%d" mode w nrows seed

let canonicalize_law =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:300 ~print:print_block
       ~name:"Coded.canonicalize equals List.sort_uniq"
       gen_block (fun ((_, w, nrows, _) as b) ->
         let data = block_data b in
         let want = List.sort_uniq compare (rows_of w nrows data) in
         let before = Array.copy data in
         let sorted = ref 0 in
         let kept, out =
           Coded.canonicalize ~on_sort:(fun n -> sorted := !sorted + n) w nrows data
         in
         kept = List.length want
         && Array.length out = kept * w
         && rows_of w kept out = want
         && data = before
         (* only input that is not already canonical is sorted *)
         && !sorted = if rows_of w nrows data = want then 0 else nrows))

(* ------------------------------------------------------------------ *)
(* Order on demand                                                      *)
(* ------------------------------------------------------------------ *)

(* A chain of 3–4 relations, joined left to right in morsels of 1 or 3
   rows (so even tiny joins take the pool path when it grants more than
   one worker), with the frames encoded either
   over the database's value-ordered dictionary (Db.of_database) or a
   first-seen interning one (of_relation: a non-identity order). *)
let gen_chain =
  let open QCheck2.Gen in
  let* n = int_range 3 4 in
  let* regime = int_range 0 1 in
  let* seed = int_range 0 100_000 in
  let* coded = bool in
  let* morsel = oneofl [ 1; 3 ] in
  let* domains = oneofl [ 1; 2; 4 ] in
  let* pick = int_range 0 1_000_000 in
  let rng = Random.State.make [| seed; n; regime |] in
  let d = Querygraph.chain n in
  let db =
    if regime = 0 then Dbgen.uniform_db ~rng ~rows:12 ~domain:4 d
    else Dbgen.skewed_db ~rng ~rows:12 ~domain:5 ~skew:1.5 d
  in
  return (db, coded, morsel, domains, pick)

let print_chain (db, coded, morsel, domains, pick) =
  Format.asprintf "%a coded=%b morsel=%d domains=%d pick=%d" Database.pp_brief db
    coded morsel domains pick

let unsorted_join_law =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:150 ~print:print_chain
       ~name:"unsorted join outputs read like the seed join"
       gen_chain (fun (db, coded, morsel, domains, pick) ->
         let rels = Database.relations db in
         let frames =
           if coded then
             let fdb = Frame.Db.of_database db in
             List.map (fun r -> Frame.Db.find fdb (Relation.scheme r)) rels
           else
             let dict = Frame.Dict.create () in
             List.map (Frame.of_relation dict) rels
         in
         let join = function
           | [] -> assert false
           | f :: rest ->
               List.fold_left
                 (fun acc f ->
                   Frame.natural_join ~domains ~morsel acc f)
                 f rest
         in
         let j = join frames and r = Database.join_all db in
         let f0 = List.hd frames and r0 = List.hd rels in
         let dict = Frame.dict f0 in
         let x =
           Attr.Set.of_list
             (pick_subset pick (Attr.Set.elements (Relation.scheme r)))
         in
         let k = pick mod 7 in
         let order = Attr.Set.elements (Relation.scheme r) in
         let seed_eq f r' = Relation.equal (Frame.to_relation f) r' in
         (Frame.cardinality j <= 1 || not (Frame.sorted j))
         && seed_eq j r
         && Int64.equal (Frame.digest j) (Relation.digest r)
         && Frame.equal j (Frame.of_relation dict r)
         && Frame.equal j (Frame.sort j)
         && Frame.sorted (Frame.sort j)
         && seed_eq (Frame.project j x) (Relation.project r x)
         && seed_eq (Frame.semijoin j f0) (Relation.semijoin r r0)
         && seed_eq (Frame.semijoin f0 j) (Relation.semijoin r0 r)
         && seed_eq
              (Frame.generic_join ~order:(List.rev order) [ j; f0 ])
              (Relation.natural_join r r0)
         && seed_eq (Frame.generic_join ~order [ f0; j ]) r
         && List.equal Tuple.equal
              (Relation.tuples (Frame.to_relation (Frame.topk ~order ~k [ j; f0 ])))
              (List.filteri (fun i _ -> i < k) (Relation.tuples r))))

let () =
  Alcotest.run "frame"
    [
      ( "dict",
        [
          Alcotest.test_case "interning" `Quick test_dict_interning;
          Alcotest.test_case "dictionary mismatch" `Quick test_dict_mismatch;
        ] );
      ( "equivalence",
        [
          round_trip;
          join_agrees;
          semijoin_agrees;
          project_agrees;
          join_all_agrees;
          oracle_agrees;
          cache_backends_agree;
        ] );
      ( "parallel",
        [
          morsel_deterministic;
          morsel_traced;
          Alcotest.test_case "forced morsel chain records lanes" `Quick
            test_morsel_traced_chain;
          Alcotest.test_case "morsel boundaries" `Quick test_morsel_boundaries;
          engines_agree;
        ] );
      ( "digest",
        [ digest_agrees; digest_of_join_agrees; execute_digest_agrees ] );
      ("order", [ canonicalize_law; unsorted_join_law ]);
    ]

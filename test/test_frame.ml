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

(* A database of 1–6 distinct schemes drawn from the subsets of
   {A, …, E}, so α-acyclic and cyclic hypergraphs both arise.  Each
   relation has 0–6 rows over a 3-value domain: dangling rows and
   empty relations are common. *)
let gen_hyper_db =
  let open QCheck2.Gen in
  let* k = int_range 1 6 in
  let* masks = list_repeat k (int_range 1 31) in
  let relation m =
    let attrs =
      [ "A"; "B"; "C"; "D"; "E" ]
      |> List.filteri (fun i _ -> m land (1 lsl i) <> 0)
      |> List.map Attr.make
    in
    let+ rows =
      list_size (int_range 0 6)
        (list_repeat (List.length attrs) (int_range 0 2))
    in
    Relation.make (Attr.Set.of_list attrs)
      (List.map
         (fun vs -> Tuple.of_list (List.combine attrs (List.map Value.int vs)))
         rows)
  in
  let+ rels = flatten_l (List.map relation (List.sort_uniq compare masks)) in
  Database.of_relations rels

(* [Db.count] on every non-empty mask, the unconnected ones included,
   one counter for them all, against the row count of a join of the
   same schemes: the seed join by default, [join_rows] when given. *)
let count_matches_join ?join_rows db =
  let fdb = Frame.Db.of_database db in
  let c = Frame.Db.counter fdb in
  let u = Bitdb.make (Database.schemes db) in
  let join_rows =
    match join_rows with
    | Some f -> f fdb
    | None ->
        fun d ->
          Relation.cardinality (Database.join_all (Database.restrict db d))
  in
  List.for_all
    (fun m -> Frame.Db.count c m = join_rows (Bitdb.set_of_mask u m))
    (List.init (Bitdb.full u) (fun m -> m + 1))

let count_agrees =
  qtest "Db.count equals the join's row count on every mask" gen_hyper_db
    count_matches_join

(* 120 linking attributes, two words of bitset per scheme: a triangle
   of 80-attribute schemes over the groups a, b and c, plus an ear on
   c.  Every attribute of a group carries the same value in a row, so
   the groups join like single attributes. *)
let test_count_wide_universe () =
  let group g = List.init 40 (fun i -> Attr.make (Printf.sprintf "%s%d" g i)) in
  let rng = Random.State.make [| 62 |] in
  let relation groups =
    let attrs = List.concat_map group groups in
    Relation.make (Attr.Set.of_list attrs)
      (List.init 12 (fun _ ->
           let vals = List.map (fun _ -> Random.State.int rng 3) groups in
           Tuple.of_list
             (List.concat
                (List.map2
                   (fun g v -> List.map (fun a -> (a, Value.int v)) (group g))
                   groups vals))))
  in
  let db =
    Database.of_relations
      [ relation [ "a"; "b" ]; relation [ "b"; "c" ]; relation [ "c"; "a" ];
        relation [ "c"; "d" ] ]
  in
  Alcotest.(check int) "universe" 160
    (Attr.Set.cardinal (Database.universe db));
  Alcotest.(check bool) "every mask counts the join" true
    (count_matches_join db)

(* A star of [k] relations [{H, Xi}] with [n] rows each, all on one hub
   value: its join has n^k rows. *)
let star_db ~hub k n =
  let h = Attr.make hub in
  Database.of_relations
    (List.init k (fun i ->
         let x = Attr.make (Printf.sprintf "%s%d" hub i) in
         Relation.make (Attr.Set.of_list [ h; x ])
           (List.init n (fun v ->
                Tuple.of_list [ (h, Value.int 0); (x, Value.int v) ]))))

let test_count_saturates () =
  let full_count db =
    let c = Frame.Db.counter (Frame.Db.of_database db) in
    Frame.Db.count c ((1 lsl Database.size db) - 1)
  in
  Alcotest.(check int) "exact below max_int" 1_000_000_000_000_000_000
    (full_count (star_db ~hub:"H" 6 1000));
  Alcotest.(check int) "10^21 rows saturate" max_int
    (full_count (star_db ~hub:"H" 7 1000));
  (* Two unconnected stars of 10^12 rows each: the product rule's
     multiply saturates too. *)
  let two =
    Database.of_relations
      (Database.relations (star_db ~hub:"G" 4 1000)
      @ Database.relations (star_db ~hub:"H" 4 1000))
  in
  let cache = Cost.Cache.create ~backend:Cost.Cache.Frame two in
  let full = Bitdb.full (Cost.Cache.universe cache) in
  Alcotest.(check int) "one star" 1_000_000_000_000
    (Cost.Cache.card_mask cache 0b1111);
  Alcotest.(check int) "product saturates" max_int
    (Cost.Cache.card_mask cache full);
  Alcotest.(check int) "saturating_mul" max_int
    (Frame.Db.saturating_mul (max_int / 2) 3);
  Alcotest.(check int) "saturating_mul exact" (max_int - 1)
    (Frame.Db.saturating_mul ((max_int - 1) / 2) 2)

(* Query graphs with cyclic cores, where ear elimination gets stuck
   and [Db.count] merges: cycles of 3 to 6 relations, the 4-clique and
   random graphs with extra edges, in the uniform or skewed regime over
   small domains (dangling rows), one relation emptied now and then. *)
let gen_cyclic_db =
  let open QCheck2.Gen in
  let* kind = int_range 0 2 in
  let* n = int_range 3 6 in
  let* rows = int_range 1 8 in
  let* domain = int_range 1 3 in
  let* skewed = bool in
  let* empty = int_range 0 (3 * n) in
  let* seed = int_range 0 100_000 in
  let rng = Random.State.make [| seed; n; kind |] in
  let d =
    match kind with
    | 0 -> Querygraph.cycle n
    | 1 -> Querygraph.clique 4
    | _ -> Querygraph.random ~extra_edge_prob:0.6 ~rng n
  in
  let db =
    if skewed then Dbgen.skewed_db ~rng ~rows ~domain:(domain + 1) ~skew:1.5 d
    else Dbgen.uniform_db ~rng ~rows ~domain d
  in
  return
    (match List.nth_opt (Database.relations db) empty with
    | Some r -> Database.replace db (Relation.make (Relation.scheme r) [])
    | None -> db)

let count_cyclic_agrees =
  qtest "Db.count equals join_schemes on cyclic cores" ~count:150
    gen_cyclic_db
    (count_matches_join ~join_rows:(fun fdb d ->
         Frame.cardinality (Frame.Db.join_schemes fdb d)))

let count_masks db masks =
  let c = Frame.Db.counter (Frame.Db.of_database db) in
  List.map (Frame.Db.count c) masks

let i = Value.int

(* A triangle whose merge projects two rows onto one: AB and BC (the
   smaller partner) join on B into (1,1,1) and (1,2,1), both (1,1) on
   AC's attributes, so the merged row weighs 2.  Keeping one weight
   (the planted [cost.count_merge]) reads 1. *)
let triangle =
  Database.of_relations
    [
      Relation.of_rows "AB" [ [ i 1; i 1 ]; [ i 1; i 2 ] ];
      Relation.of_rows "BC" [ [ i 1; i 1 ]; [ i 2; i 1 ] ];
      Relation.of_rows "AC" [ [ i 1; i 1 ]; [ i 2; i 2 ]; [ i 3; i 3 ] ];
    ]

let test_count_merge_sums () =
  Alcotest.(check int) "the join's rows" 2
    (Relation.cardinality (Database.join_all triangle));
  Alcotest.(check (list int)) "merged weights sum" [ 2 ]
    (count_masks triangle [ 0b111 ]);
  Mj_failpoint.Failpoint.with_saved (fun () ->
      Mj_failpoint.Failpoint.enable Mj_failpoint.Failpoint.Cost_count_merge;
      Alcotest.(check (list int)) "first weight only" [ 1 ]
        (count_masks triangle [ 0b111 ]))

(* AB and its partner BC share no B value: the merge is empty and so is
   the count, though the other two pairs of the triangle join. *)
let test_count_merge_empty () =
  let db =
    Database.of_relations
      [
        Relation.of_rows "AB" [ [ i 1; i 1 ] ];
        Relation.of_rows "BC" [ [ i 2; i 1 ] ];
        Relation.of_rows "AC" [ [ i 1; i 1 ]; [ i 2; i 2 ] ];
      ]
  in
  Alcotest.(check (list int)) "counts" [ 0; 1; 0; 1 ]
    (count_masks db [ 0b111; 0b011; 0b101; 0b110 ])

(* A cyclic count merges slot 0 into a bag over other attributes; the
   acyclic sub-masks that follow, slot 0 among them, and the full mask
   again must read the schemes themselves. *)
let test_count_merge_restored () =
  let rng = Random.State.make [| 4 |] in
  let db = Dbgen.uniform_db ~rng ~rows:8 ~domain:3 (Querygraph.cycle 4) in
  let fdb = Frame.Db.of_database db in
  let u = Bitdb.make (Database.schemes db) in
  let join m =
    Frame.cardinality (Frame.Db.join_schemes fdb (Bitdb.set_of_mask u m))
  in
  let masks = [ 0b1111; 0b0111; 0b1011; 0b0001; 0b1111 ] in
  let c = Frame.Db.counter fdb in
  Alcotest.(check (list int)) "each count reads its own schemes"
    (List.map join masks)
    (List.map (Frame.Db.count c) masks)

(* The triangle {A,B}, {A,C}, {B,C} on [a] values of A, with [m] ears
   {A, Xi} under AB and [m] ears {C, Yi} under AC, each of 1000 rows
   per A or C value, so every row of AB and of AC weighs 1000^m.  AB
   merges with AC (BC has more rows), and all [a] merged rows project
   onto one (B, C) key: the bag's one weight is [a] products of two
   1000^m weights, summed. *)
let test_count_merge_saturates () =
  let db ~a m =
    let ears hub tips =
      List.init m (fun e ->
          Relation.of_rows
            (hub ^ String.make 1 tips.[e])
            (List.concat
               (List.init a (fun v ->
                    List.init 1000 (fun x -> [ i v; i x ])))))
    in
    Database.of_relations
      ([
         Relation.of_rows "AB" (List.init a (fun v -> [ i v; i 0 ]));
         Relation.of_rows "AC" (List.init a (fun v -> [ i v; i 0 ]));
         Relation.of_rows "BC" (List.init (a + 1) (fun v -> [ i v; i v ]));
       ]
      @ ears "A" "DEFG" @ ears "C" "HIJK")
  in
  let full ~a m = count_masks (db ~a m) [ (1 lsl (3 + (2 * m))) - 1 ] in
  Alcotest.(check (list int)) "exact below max_int"
    [ 4_000_000_000_000_000_000 ] (full ~a:4 3);
  Alcotest.(check (list int)) "the sum saturates" [ max_int ] (full ~a:5 3);
  Alcotest.(check (list int)) "the product saturates" [ max_int ] (full ~a:1 4)

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

(* The join emits the same rows in the same order at every (domains,
   morsel) pair, and builds one index per hash join — every step of the
   left-to-right fold that shares an attribute — on either path.  A
   semijoin of the unsorted result keeps that emission too. *)
let morsel_deterministic =
  qtest "morsel join is bit-identical at any domain count" gen_db (fun db ->
      let fdb = Frame.Db.of_database db in
      let hash_joins =
        match Scheme.Set.elements (Database.schemes db) with
        | [] -> 0
        | s :: rest ->
            snd
              (List.fold_left
                 (fun (acc, n) s' ->
                   ( Attr.Set.union acc s',
                     if Attr.Set.disjoint acc s' then n else n + 1 ))
                 (s, 0) rest)
      in
      let last = List.hd (List.rev (Database.relations db)) in
      let f = Frame.Db.find fdb (Relation.scheme last) in
      let run domains morsel =
        let stats = Frame.fresh_stats () in
        let j = Frame.Db.join_all ~domains ~morsel ~stats fdb in
        (j, Frame.semijoin j f, stats.Frame.partitions)
      in
      let one, one_semi, one_parts = run 1 Frame.default_morsel in
      one_parts = hash_joins
      && List.for_all
           (fun (domains, morsel) ->
             let j, semi, parts = run domains morsel in
             Frame.same_emission one j
             && Frame.same_emission one_semi semi
             && parts = one_parts)
           [ (2, 2); (4, 1); (4, 3); (8, 2); (3, 1000) ])

(* The pool path of the join records one [morsel] span per probe
   morsel, each tagged with the worker lane that ran it; the inline
   path records none.  The index build records no span. *)
let count_morsel_spans obs =
  let parts = ref 0 and laned = ref 0 in
  let rec walk (s : Mj_obs.Obs.span_tree) =
    if s.Mj_obs.Obs.name = "morsel" then begin
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

(* The result hash by its definition: FNV-1a one byte at a time on
   boxed [Int64]s, over the scheme string and a newline plus
   [Tuple.to_string] per tuple in [Tuple.compare] order.  It shares no
   code with [Fnv], so it checks the one byte loop both digests run. *)
let definitional_hash r =
  let feed =
    String.fold_left (fun h c ->
        Int64.mul (Int64.logxor h (Int64.of_int (Char.code c))) 0x100000001b3L)
  in
  List.fold_left
    (fun h tu -> feed (feed h "\n") (Tuple.to_string tu))
    (feed 0xcbf29ce484222325L (Scheme.to_string (Relation.scheme r)))
    (List.sort Tuple.compare (Relation.tuples r))

(* Negative and extreme ints and strings, some carrying the stream's
   own separators. *)
let emitted_values =
  List.map Value.int [ min_int; -40; -7; 0; 3; 12; max_int ]
  @ List.map Value.str [ ""; "a"; "b, c"; "\n(x)"; String.make 70 'q' ]

(* [A K ...] joined with [K ...] on frames, up to 11 columns in all: the
   join emits its rows unsorted, and [A] leads every output row.  With
   [skew], most rows of [A] hold one value, so its bucket of the order
   pass outgrows the insertion sort.  The dictionary is 0 fresh (first-seen codes), 1
   pre-interned in reverse value order (codes descend as values
   ascend), 2 fresh after 5,000 unused codes, or 3 value-ordered
   ([Dict.of_sorted], the identity order) over the same 5,000 smaller
   values: in modes 2 and 3 every code needs 13 bits, so five columns
   no longer pack into 62. *)
let gen_emitted_case =
  let open QCheck2.Gen in
  let subset names =
    let* bits = int_range 0 ((1 lsl List.length names) - 1) in
    return (List.filteri (fun i _ -> bits land (1 lsl i) <> 0) names)
  in
  let* left = subset [ "B"; "C"; "D"; "E"; "F" ] in
  let* right = subset [ "G"; "H"; "I"; "J" ] in
  let* skew = bool in
  let* kdom = int_range 0 4 in
  let value_of = function
    | "K" -> map Value.int (int_range 0 kdom)
    | "A" when skew ->
        frequency [ (8, pure (Value.int 3)); (2, oneofl emitted_values) ]
    | _ -> oneofl emitted_values
  in
  let rel names rows =
    let attrs = List.map Attr.make names in
    let* rows = list_size (int_range 0 rows) (flatten_l (List.map value_of names)) in
    return
      (Relation.make (Attr.Set.of_list attrs)
         (List.map (fun vals -> Tuple.of_list (List.combine attrs vals)) rows))
  in
  let* r1 = rel ("A" :: "K" :: left) 40 in
  let* r2 = rel ("K" :: right) 12 in
  let* mode = int_range 0 3 in
  return (r1, r2, mode)

let emitted_dict mode =
  let data = emitted_values @ List.init 5 Value.int in
  let padding = List.init 5000 (fun i -> Value.int (-1_000_000 - i)) in
  match mode with
  | 1 ->
      let d = Frame.Dict.create () in
      List.iter
        (fun v -> ignore (Frame.Dict.intern d v))
        (List.sort_uniq (fun a b -> Value.compare b a) data);
      d
  | 2 ->
      let d = Frame.Dict.create () in
      List.iter (fun v -> ignore (Frame.Dict.intern d v)) padding;
      d
  | 3 ->
      Frame.Dict.of_sorted
        (Array.of_list (List.sort_uniq Value.compare (padding @ data)))
  | _ -> Frame.Dict.create ()

let print_emitted (r1, r2, mode) =
  Printf.sprintf "mode=%d\n%s\n%s" mode (Relation.to_string r1)
    (Relation.to_string r2)

let emitted_digest_law =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:300 ~print:print_emitted
       ~name:"digest and decode of emitted-order joins match the definition"
       gen_emitted_case (fun (r1, r2, mode) ->
         let d = emitted_dict mode in
         let j = Frame.natural_join (Frame.of_relation d r1) (Frame.of_relation d r2) in
         let r = Relation.natural_join r1 r2 in
         let want = definitional_hash r in
         let digest_stats = Frame.fresh_stats ()
         and decode_stats = Frame.fresh_stats () in
         Int64.equal (Relation.digest r) want
         && Int64.equal (Frame.digest ~stats:digest_stats j) want
         && Relation.equal (Frame.to_relation ~stats:decode_stats j) r
         (* one order pass at most, the same for both finishers *)
         && digest_stats.Frame.sorted_rows = decode_stats.Frame.sorted_rows
         && List.mem digest_stats.Frame.sorted_rows [ 0; Frame.cardinality j ]))

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

(* Distinct rows of width 1–12 over codes [0, ncodes), in shuffled
   order, with a random code-to-rank table; with [skew] most rows lead
   with code 0. *)
let gen_rank_case =
  let open QCheck2.Gen in
  let* w = int_range 1 12 in
  let* ncodes = int_range 1 40 in
  let* skew = bool in
  let code = int_range 0 (ncodes - 1) in
  let lead = if skew then frequency [ (9, pure 0); (1, code) ] else code in
  let* rows =
    list_size (int_range 0 120)
      (let* c0 = lead in
       let* rest = list_repeat (w - 1) code in
       return (c0 :: rest))
  in
  let* rows = shuffle_l (List.sort_uniq compare rows) in
  let* rank = shuffle_a (Array.init ncodes Fun.id) in
  return (w, rows, rank)

let print_rank_case (w, rows, rank) =
  Printf.sprintf "w=%d rank=[%s] rows=%s" w
    (String.concat ";" (Array.to_list (Array.map string_of_int rank)))
    (String.concat " "
       (List.map (fun r -> String.concat "," (List.map string_of_int r)) rows))

let rank_order_law =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:500 ~print:print_rank_case
       ~name:"Coded.rank_order lists the rows in rank order"
       gen_rank_case (fun (w, rows, rank) ->
         let n = List.length rows in
         let data = Array.of_list (List.concat rows) in
         let keyed = List.mapi (fun i r -> (List.map (Array.get rank) r, i)) rows in
         let want = List.map snd (List.sort compare keyed) in
         let sorted = ref 0 in
         let got =
           Coded.rank_order ~on_sort:(fun k -> sorted := !sorted + k) ~rank w n
             data
         in
         match got with
         | None -> want = List.init n Fun.id && !sorted = 0
         | Some perm -> Array.to_list perm = want && !sorted = n))

(* One code in every row of the leading column: the bucket finish is a
   heap sort, so 4,096 rows in descending order cost at most
   2·n·log₂ n comparisons, where the insertion sort of small buckets
   would make n(n−1)/2 = 8,386,560. *)
let test_rank_order_skew () =
  let n = 4096 in
  let data = Array.init (2 * n) (fun c -> if c mod 2 = 0 then 0 else n - 1 - (c / 2)) in
  let compares = ref 0 in
  let perm =
    Coded.rank_order ~compares ~rank:(Array.init n Fun.id) 2 n data
  in
  Alcotest.(check (option (array int))) "ascending" (Some (Array.init n (fun r -> n - 1 - r))) perm;
  Alcotest.(check bool)
    (Printf.sprintf "%d comparisons, bound %d" !compares (2 * n * 12))
    true
    (!compares <= 2 * n * 12)

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
          count_agrees;
          count_cyclic_agrees;
          cache_backends_agree;
        ] );
      ( "count",
        [
          Alcotest.test_case "wider than 62 attributes" `Quick
            test_count_wide_universe;
          Alcotest.test_case "saturates at max_int" `Quick test_count_saturates;
          Alcotest.test_case "merged weights sum" `Quick test_count_merge_sums;
          Alcotest.test_case "empty merge" `Quick test_count_merge_empty;
          Alcotest.test_case "merged slots are restored" `Quick
            test_count_merge_restored;
          Alcotest.test_case "saturates through a merge" `Quick
            test_count_merge_saturates;
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
        [
          digest_agrees;
          digest_of_join_agrees;
          execute_digest_agrees;
          emitted_digest_law;
        ] );
      ( "order",
        [
          canonicalize_law;
          unsorted_join_law;
          rank_order_law;
          Alcotest.test_case "skewed leading column" `Quick test_rank_order_skew;
        ] );
    ]

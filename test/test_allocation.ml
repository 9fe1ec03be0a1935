(* Allocation pins: the words a frame join, a warm seed query and a
   warm frame certify allocate, as exact counts.

   These tests live in an executable of their own because they read
   the GC's counters, and OCaml 5.1 keeps those exact only while the
   process runs one domain.  Once a pool has spawned helper domains —
   parked, but alive — a stop-the-world collection can land inside a
   measured call and empty the minor heap there, promoting its live
   young blocks into the major heap, where they count as major words.
   In a larger suite whose earlier tests ran the pool, the certify
   pin read 772 to 835 for 829 on a loaded host.  Nothing here may
   start a domain: every query below runs at [~domains:1]. *)

open Mj_relation
module Engine = Mj_engine.Engine
module Planner = Mj_engine.Planner
module Obs = Mj_obs.Obs

(* One warm frame certify, as exact words: the path-4 root at 400 rows
   (the serve-hot frame kind: 425 rows of 9 columns, too wide for one
   packed key),
   joined left-deep on one domain and left unsorted.  Its order pass
   allocates the permutation (one word per row plus a header), its
   [Some] box (two words) and the bucket counts (the largest leading
   code plus two, plus a header);
   the stream's labels and scratch and the boxed result are the same
   for the root in code order, which needs no pass.  Nothing is
   allocated per row or cell beyond the permutation. *)
let test_frame_certify_allocation () =
  let w =
    {
      Mj_serve.Protocol.shape = "path";
      n = 4;
      rows = 400;
      domain = 400;
      regime = "uniform";
      seed = 0;
    }
  in
  let db = Mj_serve.Protocol.materialize w in
  let fdb = Frame.Db.of_database db in
  let root = Frame.Db.join_all ~domains:1 fdb in
  let sorted = Frame.sort root in
  (* Both heaps: arrays over 256 words go straight to the major one.
     The minor heap is emptied first, so nothing is promoted. *)
  let major () =
    let _, _, words = Gc.counters () in
    words
  in
  let words f =
    ignore (Frame.digest f);
    Gc.minor ();
    let j0 = major () in
    let m0 = Gc.minor_words () in
    ignore (Sys.opaque_identity (Frame.digest f));
    let m1 = Gc.minor_words () in
    let j1 = major () in
    m1 -. m0 +. (j1 -. j0)
  in
  let certify = words root and stream = words sorted in
  let r = Frame.to_relation root in
  let lead = Attr.Set.min_elt (Relation.scheme r) in
  let top =
    Relation.fold
      (fun tu acc ->
        max acc (Option.get (Frame.Dict.code (Frame.dict root) (Tuple.get tu lead))))
      r 0
  in
  let rows = Frame.cardinality root in
  Alcotest.(check (pair int int)) "rows and columns" (425, 9)
    (rows, Attr.Set.cardinal (Frame.scheme root));
  Alcotest.(check bool) "emitted unsorted" false (Frame.sorted root);
  Alcotest.(check (float 0.)) "the permutation and the bucket counts"
    (float_of_int (2 + (rows + 1) + (top + 2 + 1)))
    (certify -. stream);
  Alcotest.(check (float 0.)) "certify words" 980. certify

(* Allocation as exact counts.  A frame hash join allocates a fixed
   handful of words whatever its size: probing, chain walks
   ([keys_match]) and output rows allocate nothing per row.  The first
   join of the skewed cycle-3 database, at 400 and at 6000 rows
   (3,392 and 235,686 output rows), allocates the same. *)
let test_frame_join_allocation () =
  let join_words rows =
    let w =
      {
        Mj_serve.Protocol.shape = "cycle";
        n = 3;
        rows;
        domain = rows;
        regime = "skewed";
        seed = 0;
      }
    in
    let db = Mj_serve.Protocol.materialize w in
    let fdb = Frame.Db.of_database db in
    let s1, s2 =
      match Scheme.Set.elements (Database.schemes db) with
      | s1 :: s2 :: _ -> (s1, s2)
      | _ -> assert false
    in
    let f1 = Frame.Db.find fdb s1 and f2 = Frame.Db.find fdb s2 in
    let before = Gc.minor_words () in
    let j = Frame.natural_join ~domains:1 f1 f2 in
    let words = Gc.minor_words () -. before in
    (Frame.cardinality j, words)
  in
  let small_rows, small = join_words 400 in
  let large_rows, large = join_words 6000 in
  Alcotest.(check (pair int int)) "output rows" (3392, 235686)
    (small_rows, large_rows);
  Alcotest.(check (float 0.)) "same words at both sizes" small large

(* The minor words of one warm seed-plane query, pinned like the
   certify words above: chain-4 under the hash policy at 400
   rows, seed 0, one domain (the serve-hot seed kind), after a first
   run.  τ is 1,140; each joined tuple costs its value array, its
   record and its list cell. *)
let test_seed_query_allocation () =
  let w =
    {
      Mj_serve.Protocol.shape = "chain";
      n = 4;
      rows = 400;
      domain = 400;
      regime = "uniform";
      seed = 0;
    }
  in
  let db = Mj_serve.Protocol.materialize w in
  let cfg =
    {
      (Engine.Config.make ~plane:Engine.Seed ~policy:Planner.Hash_all ~domains:1
         ~obs:Obs.noop ())
      with
      telemetry = None;
    }
  in
  let plan = Engine.lower cfg db (Mj_serve.Protocol.default_strategy db) in
  let warm, _ = Engine.execute_digest cfg db plan in
  let before = Gc.minor_words () in
  let digest, stats = Engine.execute_digest cfg db plan in
  let words = Gc.minor_words () -. before in
  Alcotest.(check int64) "same digest" warm digest;
  Alcotest.(check int) "tau" 1140 stats.Engine.tuples_generated;
  Alcotest.(check (float 0.)) "minor words" 55648. words

let () =
  Alcotest.run "mj_allocation"
    [
      ( "allocation",
        [
          Alcotest.test_case "frame join" `Quick test_frame_join_allocation;
          Alcotest.test_case "warm seed query" `Quick
            test_seed_query_allocation;
          Alcotest.test_case "warm frame certify" `Quick
            test_frame_certify_allocation;
        ] );
    ]

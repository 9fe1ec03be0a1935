(* The check harness's own suite: descriptor serialization, shrinking,
   every check leg on fixed cases (alone, and each matrix leg under its
   planted failpoint), repro round-trips, replay of
   the committed repro, and the planted-mutation self-test. *)

module Failpoint = Mj_failpoint.Failpoint
module Gen = Mj_check.Gen
module Check = Mj_check.Check
module Fuzz = Mj_check.Fuzz

let qtest name ?(count = 100) gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~name ~count gen prop)

let descriptor_gen =
  QCheck2.Gen.(
    map
      (fun (seed, (shape, n, rows, (domain, regime))) ->
        Gen.normalize
          {
            Gen.seed;
            shape =
              List.nth
                [ Gen.Chain; Gen.Star; Gen.Cycle; Gen.Random_graph ]
                shape;
            n;
            rows;
            domain;
            regime = List.nth [ Gen.Uniform; Gen.Skewed; Gen.Superkey ] regime;
          })
      (pair (int_range 0 100_000)
         (quad (int_range 0 3) (int_range 2 7) (int_range 1 9)
            (pair (int_range 1 9) (int_range 0 2)))))

(* ------------------------------------------------------------------ *)
(* Descriptors                                                          *)
(* ------------------------------------------------------------------ *)

let prop_descriptor_roundtrip =
  qtest "to_string/of_string round-trip" descriptor_gen (fun d ->
      Gen.of_string (Gen.to_string d) = Ok d)

let prop_normalize_idempotent =
  qtest "normalize is idempotent" descriptor_gen (fun d ->
      Gen.normalize d = d)

let prop_materialize_deterministic =
  qtest "materialize is a function of the descriptor" ~count:20
    descriptor_gen (fun d ->
      let db1, s1 = Gen.materialize d in
      let db2, s2 = Gen.materialize d in
      Mj_relation.Database.equal db1 db2 && Multijoin.Strategy.equal s1 s2)

let prop_shrink_terminates =
  qtest "greedy shrinking reaches a fixpoint" ~count:50 descriptor_gen
    (fun d ->
      (* Follow the first-candidate chain; the well-founded measure
         bounds its length. *)
      let rec descend d fuel =
        if fuel = 0 then false
        else match Gen.shrink d with [] -> true | c :: _ -> descend c (fuel - 1)
      in
      descend d 200)

let test_of_string_rejects_unknown () =
  match Gen.of_string "seed=1\nbogus=2\n" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown key must be rejected"

(* ------------------------------------------------------------------ *)
(* The checks on fixed cases                                            *)
(* ------------------------------------------------------------------ *)

let fixed_cases =
  [
    { Gen.default with Gen.seed = 11 };
    { Gen.default with Gen.seed = 12; shape = Gen.Star; n = 4; rows = 5 };
    { Gen.default with Gen.seed = 13; shape = Gen.Cycle; n = 4; domain = 2 };
    {
      Gen.default with
      Gen.seed = 14;
      shape = Gen.Random_graph;
      n = 5;
      rows = 6;
      regime = Gen.Skewed;
    };
    { Gen.default with Gen.seed = 15; n = 3; regime = Gen.Superkey };
  ]

let test_fixed_cases_pass () =
  List.iter
    (fun d ->
      match Check.run_case d with
      | Check.Pass -> ()
      | Check.Fail f ->
          Alcotest.failf "%a failed: %a" Gen.pp d Check.pp_failure f)
    fixed_cases

let test_individual_passes () =
  let d = List.nth fixed_cases 3 in
  let db, s = Gen.materialize d in
  let expect name = function
    | Check.Pass -> ()
    | Check.Fail f -> Alcotest.failf "%s: %a" name Check.pp_failure f
  in
  expect "differential" (Check.differential db s);
  expect "metamorphic" (Check.metamorphic db s);
  expect "theorems" (Check.theorems db);
  expect "faults" (Check.faults db s)

(* Every exported leg, alone, on one acyclic and one cyclic case. *)
let leg_cases =
  [
    ( "acyclic",
      { Gen.default with Gen.seed = 12; shape = Gen.Star; n = 4; rows = 5 } );
    ( "cyclic",
      { Gen.default with Gen.seed = 13; shape = Gen.Cycle; n = 4; domain = 2 }
    );
  ]

let legs =
  [
    ("differential", Check.differential);
    ("wcoj_differential", Check.wcoj_differential);
    ("yann_differential", Check.yann_differential);
    ("serve_differential", Check.serve_differential);
    ("twin", Check.twin);
    ("metamorphic", Check.metamorphic);
    ("theorems", fun db _ -> Check.theorems db);
    ("faults", Check.faults);
  ]

let test_each_leg_passes () =
  List.iter
    (fun (case, d) ->
      let db, s = Gen.materialize d in
      List.iter
        (fun (leg, run) ->
          match run db s with
          | Check.Pass -> ()
          | Check.Fail f ->
              Alcotest.failf "%s on the %s case: %a" leg case
                Check.pp_failure f)
        legs)
    leg_cases

(* Each engine-matrix leg must catch its planted frame-plane mutation by
   itself, and in a frame cell: a matrix that dropped the frame plane
   would pass here. *)
let test_matrix_legs_catch_planted () =
  let db, s = Gen.materialize (List.assoc "acyclic" leg_cases) in
  List.iter
    (fun (leg, run, point) ->
      let outcome =
        Failpoint.with_saved (fun () ->
            Failpoint.reset ();
            Failpoint.enable point;
            run db s)
      in
      match outcome with
      | Check.Pass ->
          Alcotest.failf "%s passed with %s planted" leg (Failpoint.name point)
      | Check.Fail f ->
          if not (String.starts_with ~prefix:"frame/" f.Check.detail) then
            Alcotest.failf "%s failed outside a frame cell: %a" leg
              Check.pp_failure f)
    [
      ("differential", Check.differential, Failpoint.Frame_lossy_join);
      ("wcoj_differential", Check.wcoj_differential, Frame_lossy_join);
      ("yann_differential", Check.yann_differential, Yann_lossy_semijoin);
    ]

let test_faults_restore_state () =
  Failpoint.reset ();
  (match Failpoint.set_spec "estimate.oversize" with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  let d = List.hd fixed_cases in
  let db, s = Gen.materialize d in
  ignore (Check.faults db s);
  Alcotest.(check string)
    "failpoint spec restored" "estimate.oversize" (Failpoint.spec ());
  Failpoint.reset ()

(* ------------------------------------------------------------------ *)
(* Repro files and replay                                               *)
(* ------------------------------------------------------------------ *)

let prop_repro_roundtrip =
  qtest "repro round-trip with failpoints and expectation" ~count:50
    QCheck2.Gen.(pair descriptor_gen (int_range 0 4))
    (fun (d, k) ->
      let failpoints =
        match k with
        | 0 -> ""
        | 1 -> "frame.lossy_join"
        | 2 -> "pool.worker_kill,cost.cache_poison"
        | _ -> "estimate.oversize"
      in
      let expect = if k = 3 then Fuzz.Expect_pass else Fuzz.Expect_fail in
      let r = { Fuzz.descriptor = d; failpoints; expect } in
      Fuzz.repro_of_string (Fuzz.repro_to_string r) = Ok r)

let test_repro_rejects_garbage () =
  (match Fuzz.repro_of_string "expect=maybe\n" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "bad expect value must be rejected");
  match Fuzz.repro_of_string "failpoint=typo\n" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown key must be rejected"

let test_committed_repro_replays () =
  (* cwd is test/ under `dune runtest`, the project root under
     `dune exec test/test_check.exe`. *)
  let path =
    List.find Sys.file_exists
      [
        "repros/planted-frame-lossy.repro";
        "test/repros/planted-frame-lossy.repro";
      ]
  in
  let contents = In_channel.with_open_text path In_channel.input_all in
  match Fuzz.repro_of_string contents with
  | Error e -> Alcotest.fail e
  | Ok r -> (
      match Fuzz.replay r with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "committed repro no longer replays: %s" e)

let test_replay_detects_stale_expectation () =
  (* A passing case with expect=fail must be reported as stale. *)
  let r =
    {
      Fuzz.descriptor = List.hd fixed_cases;
      failpoints = "";
      expect = Fuzz.Expect_fail;
    }
  in
  match Fuzz.replay r with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "stale expectation must not replay successfully"

(* ------------------------------------------------------------------ *)
(* Campaign determinism and the self-test                               *)
(* ------------------------------------------------------------------ *)

let test_case_descriptor_deterministic () =
  for i = 0 to 5 do
    Alcotest.(check bool)
      "same descriptor" true
      (Fuzz.case_descriptor ~seed:3 ~max_n:5 i
      = Fuzz.case_descriptor ~seed:3 ~max_n:5 i)
  done

let contains s sub =
  let n = String.length sub in
  let rec go i =
    i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
  in
  go 0

(* The lost morsel and the morsel order live on the pool path: caught
   where the pool grants more than one worker, reported as skipped
   (never as caught) where it grants one, and the summary names the
   core count either way.  The frame counter's lost message and
   unsummed merge and the conditions decision's kept neighbours are
   caught everywhere. *)
let test_self_test () =
  match Fuzz.self_test () with
  | Ok msg ->
      let pooled = Mj_pool.Pool.workers 4 > 1 in
      Alcotest.(check bool) "core count" true
        (String.starts_with
           ~prefix:(Printf.sprintf "cores: %d" Mj_pool.Pool.cores)
           msg);
      List.iter
        (fun spec ->
          Alcotest.(check bool) (spec ^ " caught") pooled
            (contains msg ("planted " ^ spec ^ " caught"));
          Alcotest.(check bool) (spec ^ " skipped") (not pooled)
            (contains msg ("planted " ^ spec ^ " skipped")))
        [ "frame.lost_morsel"; "frame.morsel_order" ];
      Alcotest.(check bool) "kept neighbours caught" true
        (contains msg "planted conditions.keep_neighbors caught");
      Alcotest.(check bool) "lost count message caught" true
        (contains msg "planted cost.count_message caught");
      Alcotest.(check bool) "unsummed count merge caught" true
        (contains msg "planted cost.count_merge caught")
  | Error e -> Alcotest.failf "self-test failed: %s" e

(* ------------------------------------------------------------------ *)
(* The failpoint registry itself                                        *)
(* ------------------------------------------------------------------ *)

let test_failpoint_registry () =
  Failpoint.reset ();
  List.iter
    (fun p ->
      Alcotest.(check bool) "inactive" false (Failpoint.active p);
      Alcotest.(check bool) "no fire" false (Failpoint.fire p))
    Failpoint.all;
  (match Failpoint.set_spec "frame.lossy_join,estimate.oversize" with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  Alcotest.(check bool) "lossy active" true
    (Failpoint.active Failpoint.Frame_lossy_join);
  Alcotest.(check bool) "kill inactive" false
    (Failpoint.active Failpoint.Pool_worker_kill);
  let before = Failpoint.hits Failpoint.Frame_lossy_join in
  Alcotest.(check bool) "fires" true
    (Failpoint.fire Failpoint.Frame_lossy_join);
  Alcotest.(check int) "hit counted" (before + 1)
    (Failpoint.hits Failpoint.Frame_lossy_join);
  (match Failpoint.set_spec "nonsense" with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "unknown name must be rejected");
  Failpoint.reset ();
  Alcotest.(check string) "reset clears" "" (Failpoint.spec ());
  (match Failpoint.trip Failpoint.Pool_worker_kill with
  | () -> ()
  | exception Failpoint.Injected _ -> Alcotest.fail "inactive trip raised");
  Failpoint.enable Failpoint.Pool_worker_kill;
  (match Failpoint.trip Failpoint.Pool_worker_kill with
  | () -> Alcotest.fail "active trip must raise"
  | exception Failpoint.Injected _ -> ());
  Failpoint.reset ()

let () =
  Alcotest.run "check"
    [
      ( "descriptors",
        [
          prop_descriptor_roundtrip;
          prop_normalize_idempotent;
          prop_materialize_deterministic;
          prop_shrink_terminates;
          Alcotest.test_case "unknown key" `Quick test_of_string_rejects_unknown;
        ] );
      ( "checks",
        [
          Alcotest.test_case "fixed cases pass" `Slow test_fixed_cases_pass;
          Alcotest.test_case "individual passes" `Quick test_individual_passes;
          Alcotest.test_case "each leg alone" `Slow test_each_leg_passes;
          Alcotest.test_case "matrix legs catch planted faults" `Quick
            test_matrix_legs_catch_planted;
          Alcotest.test_case "fault pass restores state" `Quick
            test_faults_restore_state;
        ] );
      ( "repro",
        [
          prop_repro_roundtrip;
          Alcotest.test_case "garbage rejected" `Quick test_repro_rejects_garbage;
          Alcotest.test_case "committed repro" `Quick test_committed_repro_replays;
          Alcotest.test_case "stale expectation" `Quick
            test_replay_detects_stale_expectation;
        ] );
      ( "campaign",
        [
          Alcotest.test_case "deterministic descriptors" `Quick
            test_case_descriptor_deterministic;
          Alcotest.test_case "self-test" `Slow test_self_test;
        ] );
      ("failpoints", [ Alcotest.test_case "registry" `Quick test_failpoint_registry ]);
    ]

module Failpoint = Mj_failpoint.Failpoint

type expectation = Expect_pass | Expect_fail

type repro = {
  descriptor : Gen.descriptor;
  failpoints : string;
  expect : expectation;
}

let repro_to_string r =
  Gen.to_string r.descriptor
  ^ (if r.failpoints = "" then ""
     else Printf.sprintf "failpoints=%s\n" r.failpoints)
  ^ Printf.sprintf "expect=%s\n"
      (match r.expect with Expect_fail -> "fail" | Expect_pass -> "pass")

let repro_of_string s =
  match Gen.parse_lines s with
  | Error _ as e -> e
  | Ok pairs -> (
      match Gen.of_pairs pairs with
      | Error _ as e -> e
      | Ok (descriptor, leftover) ->
          let rec go r = function
            | [] -> Ok r
            | ("failpoints", v) :: rest -> go { r with failpoints = v } rest
            | ("expect", "fail") :: rest -> go { r with expect = Expect_fail } rest
            | ("expect", "pass") :: rest -> go { r with expect = Expect_pass } rest
            | ("expect", v) :: _ ->
                Error (Printf.sprintf "expect: want fail or pass, got %S" v)
            | (key, _) :: _ -> Error (Printf.sprintf "unknown key %S" key)
          in
          go { descriptor; failpoints = ""; expect = Expect_fail } leftover)

let replay r =
  Failpoint.with_saved @@ fun () ->
  Failpoint.reset ();
  let planted =
    if r.failpoints = "" then Ok () else Failpoint.set_spec r.failpoints
  in
  match planted with
  | Error msg -> Error ("failpoints: " ^ msg)
  | Ok () -> (
      match (Check.run_case r.descriptor, r.expect) with
      | Check.Pass, Expect_pass -> Ok "passed, as expected"
      | Check.Fail f, Expect_fail ->
          Ok (Format.asprintf "failed as expected (%a)" Check.pp_failure f)
      | Check.Pass, Expect_fail ->
          Error
            "expected a failure, but every check passed — the repro may be \
             stale"
      | Check.Fail f, Expect_pass ->
          Error (Format.asprintf "expected a pass, got %a" Check.pp_failure f))

let rec minimize ?faults d f =
  let rec try_candidates = function
    | [] -> (d, f)
    | c :: rest -> (
        match Check.run_case ?faults c with
        | Check.Fail f' -> minimize ?faults c f'
        | Check.Pass -> try_candidates rest)
  in
  try_candidates (Gen.shrink d)

let case_descriptor ~seed ~max_n i =
  let rng = Random.State.make [| 0xf7a; seed; i |] in
  Gen.generate rng ~max_n

let campaign ?(progress = fun _ _ _ -> ()) ?(max_n = 5) ~seed ~cases () =
  let failures = ref [] in
  for i = 0 to cases - 1 do
    let d = case_descriptor ~seed ~max_n i in
    let outcome = Check.run_case d in
    progress i d outcome;
    match outcome with
    | Check.Pass -> ()
    | Check.Fail f ->
        let dm, fm = minimize d f in
        failures := (i, d, dm, fm) :: !failures
  done;
  List.rev !failures

(* The fixed case the self-test plants its mutation into: big enough
   that shrinking has real work to do, small enough to stay fast. *)
let planted_case =
  Gen.normalize
    {
      Gen.seed = 7;
      shape = "random";
      n = 5;
      rows = 5;
      domain = 3;
      regime = "skewed";
    }

(* The yann reducer only runs on α-acyclic strategies; the random
   graph above may be cyclic, so its mutation is planted into the same
   case over a path. *)
let planted_acyclic_case = Gen.normalize { planted_case with Gen.shape = "path" }

(* Most checks read the τ cache only on the masks a strategy's steps
   produce, and the product rule only prices unconnected ones; over a
   chain whose random strategy takes no Cartesian product step, the
   theorem checks, which read every mask, are the ones to catch a wrong
   product. *)
let planted_cp_free_case =
  Gen.normalize { planted_case with Gen.seed = 8; shape = "chain" }

(* A decision that keeps E's neighbours can only make C1 and C1' fail
   where they held.  Both fail outright on the skewed case, so that
   mutation is planted on its uniform twin, where they hold. *)
let planted_uniform_case = Gen.normalize { planted_case with Gen.regime = "uniform" }

(* Every check that reads the default τ cache counts through [Frame],
   and the first of them catches a wrong frame count. *)
let count_readers = [ "wcoj"; "yann"; "metamorphic"; "theorems" ]

(* Plant one named mutation into the fixed case and require the whole
   detect → shrink → clean-re-run loop to work: the harness must catch
   it, the minimizer must bring the repro down to ≤ 4 relations while
   it still fails, and resetting the failpoint must make the shrunk
   repro quiet again.  [caught_by] names the check families (prefixes
   of [failure.check]) one of which must be the one to catch it. *)
let plant_and_verify ~caught_by d spec =
  Failpoint.reset ();
  (match Failpoint.set_spec spec with
  | Ok () -> ()
  | Error msg -> failwith msg);
  match Check.run_case d with
  | Check.Pass -> Error (Printf.sprintf "planted %s mutation went undetected" spec)
  | Check.Fail f
    when not
           (List.exists
              (fun c -> String.starts_with ~prefix:(c ^ ":") f.check)
              caught_by) ->
      Error
        (Format.asprintf "planted %s was caught by %a, want the %s checks" spec
           Check.pp_failure f
           (String.concat " or " caught_by))
  | Check.Fail f -> (
      let dm, fm = minimize d f in
      if dm.Gen.n > 4 then
        Error
          (Format.asprintf "shrinking stalled at %d relations (%a), want ≤ 4"
             dm.Gen.n Gen.pp dm)
      else
        match Check.run_case dm with
        | Check.Pass ->
            Error
              (Format.asprintf
                 "minimized repro %a no longer fails under the planted \
                  mutation"
                 Gen.pp dm)
        | Check.Fail _ -> (
            Failpoint.reset ();
            match Check.run_case dm with
            | Check.Fail f' ->
                Error
                  (Format.asprintf
                     "minimized repro %a fails even without the mutation: %a"
                     Gen.pp dm Check.pp_failure f')
            | Check.Pass ->
                Ok
                  (Format.asprintf
                     "planted %s caught (%a on %a), shrunk to %a, clean \
                      re-run quiet"
                     spec Check.pp_failure fm Gen.pp d Gen.pp dm)))

let self_test () =
  Failpoint.with_saved @@ fun () ->
  Failpoint.reset ();
  let d = planted_case in
  match Check.run_case d with
  | Check.Fail f ->
      Error
        (Format.asprintf "clean harness is not quiet on %a: %a" Gen.pp d
           Check.pp_failure f)
  | Check.Pass -> (
      (* Eleven independent planted bugs, each through the full loop:
         the lossy frame join, the lossy yann semijoin reducer, the
         skipped root sort, the order pass's unfinished bucket and the
         parallel join's lost morsel (all caught by the matrix's digest
         checks, on the hash the daemon serves without decoding), the
         parallel join's morsel order
         (caught by the emission check, since every digest reads a
         sorted root), the serve stale-plan cache collision (caught by
         the serve leg's τ-log comparison), the τ cache's off-by-one
         product rule, the frame counter's lost message and unsummed
         merge (the product rule caught by the theorem checks' exact
         cache comparison, the counter's two faults by the first check
         that reads the default cache; the merge's repro shrinks onto
         a cycle, where cyclic cores survive), and the conditions
         decision that keeps E's neighbours (caught by the theorem
         checks' comparison with the enumeration).  The lost morsel
         and the morsel order sit on the pool path, which a 1-core
         host never takes: there they are reported as skipped. *)
      let rec all acc = function
        | [] -> Ok (String.concat "; " (List.rev acc))
        | (caught_by, case, spec) :: rest -> (
            match plant_and_verify ~caught_by case spec with
            | Error _ as e -> e
            | Ok msg -> all (msg :: acc) rest)
      in
      let pooled = Mj_pool.Pool.workers 4 > 1 in
      let on_pool =
        [
          ([ "digest" ], d, "frame.lost_morsel");
          ([ "emission" ], d, "frame.morsel_order");
        ]
      in
      let skipped (_, _, spec) =
        Printf.sprintf
          "planted %s skipped: the pool grants one worker here, so no join \
           takes the pool path"
          spec
      in
      all
        (List.rev
           (Printf.sprintf "cores: %d" Mj_pool.Pool.cores
           :: (if pooled then [] else List.map skipped on_pool)))
        ([
           ([ "digest" ], d, "frame.lossy_join");
           ([ "digest" ], planted_acyclic_case, "yann.lossy_semijoin");
           ([ "digest" ], d, "frame.skip_root_sort");
           ([ "digest" ], d, "frame.certify_bucket");
           ([ "serve" ], d, "serve.cache_stale_plan");
           ([ "theorems" ], planted_cp_free_case, "cost.cp_product");
           (count_readers, d, "cost.count_message");
           (count_readers, d, "cost.count_merge");
           ([ "theorems" ], planted_uniform_case, "conditions.keep_neighbors");
         ]
        @ if pooled then on_pool else []))

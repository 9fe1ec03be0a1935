open Mj_relation
open Multijoin
module Hypergraph = Mj_hypergraph.Hypergraph
module Bitdb = Mj_hypergraph.Bitdb
module Jointree = Mj_hypergraph.Jointree
module Obs = Mj_obs.Obs
module Json = Mj_obs.Json
module Engine = Mj_engine.Engine
module Planner = Mj_engine.Planner
module Physical = Mj_engine.Physical
module Pool = Mj_pool.Pool
module Failpoint = Mj_failpoint.Failpoint
module Serve = Mj_serve.Serve
module Protocol = Mj_serve.Protocol

type failure = { check : string; detail : string }
type outcome = Pass | Fail of failure

exception Failed of failure

let fail check fmt =
  Format.kasprintf (fun detail -> raise (Failed { check; detail })) fmt

let pp_failure fmt f = Format.fprintf fmt "%s: %s" f.check f.detail
let guard f = try f () ; Pass with Failed x -> Fail x

(* ------------------------------------------------------------------ *)
(* Differential: the engine matrix against the algebraic reference.   *)
(* ------------------------------------------------------------------ *)

let planes = [ Engine.Seed; Engine.Frame ]
let domain_counts = [ 1; 4 ]

(* The multi-domain cells join in 3-row morsels, so fuzz-sized probe
   sides span several morsels and take the frame plane's pool path
   whenever the pool grants more than one worker.  On a 1-core host
   the pool grants one and every cell runs inline. *)
let cell_morsel domains = if domains > 1 then Some 3 else None

(* The structural fingerprint of a trace: every "scan", "join" and
   "semijoin" span in DFS order with its scheme attribute.  Only a
   semijoin program opens "semijoin" spans, so the binary and wcoj
   legs' skeletons hold scans and joins alone.  Kernel labels and
   timings are allowed to differ across the matrix; the shape is not. *)
let skeleton_names = [ "scan"; "join"; "semijoin" ]

let skeleton obs =
  let scheme_of attrs =
    match List.assoc_opt "scheme" attrs with
    | Some (Json.Str s) -> s
    | _ -> "?"
  in
  let rec walk acc (sp : Obs.span_tree) =
    let acc =
      if List.mem sp.Obs.name skeleton_names then
        (sp.Obs.name, scheme_of sp.Obs.attrs) :: acc
      else acc
    in
    List.fold_left walk acc sp.Obs.children
  in
  List.rev (List.fold_left walk [] (Obs.trace obs))

let step_log_equal a b =
  List.equal
    (fun (d1, c1) (d2, c2) -> Scheme.Set.equal d1 d2 && c1 = c2)
    a b

let pp_step_log fmt log =
  Format.fprintf fmt "[%a]"
    (Format.pp_print_list
       ~pp_sep:(fun fmt () -> Format.fprintf fmt "; ")
       (fun fmt (d, c) -> Format.fprintf fmt "%a=%d" Scheme.Set.pp d c))
    log

(* The result hash by its definition: FNV-1a, one byte at a time on
   boxed [Int64]s, over the scheme string and a newline plus
   [Tuple.to_string] per tuple in [Tuple.compare] order.  It shares no
   code with [Fnv], whose one byte loop every served and reference
   digest now runs, so a bug in that loop shows up here. *)
let definitional_hash r =
  let feed =
    String.fold_left (fun h c ->
        Int64.mul (Int64.logxor h (Int64.of_int (Char.code c))) 0x100000001b3L)
  in
  List.fold_left
    (fun h tu -> feed (feed h "\n") (Tuple.to_string tu))
    (feed 0xcbf29ce484222325L (Scheme.to_string (Relation.scheme r)))
    (List.sort Tuple.compare (Relation.tuples r))

(* Certification on the native result, checked first in every matrix
   cell: the serve daemon answers with [Engine.execute_digest], which on
   the frame plane hashes code buffers and decodes nothing, so a lossy
   kernel must show up in the served hash and row count themselves —
   not only in a decode nobody reads.  [want] is the reference's
   {!definitional_hash}; the served hash must equal it and
   [Protocol.result_hash] of the reference.  [cfg] is the cell's
   config; the digest run records no spans. *)
let check_digest where (cfg : Engine.Config.t) db s expected ~want =
  let cfg = { cfg with obs = Obs.noop } in
  let got, stats = Engine.execute_digest cfg db (Engine.lower cfg db s) in
  List.iter
    (fun (name, reference) ->
      if not (Int64.equal got reference) then
        fail "digest:hash" "%s: served hash %s, %s %s" where
          (Protocol.hash_hex got) name (Protocol.hash_hex reference))
    [ ("reference", Protocol.result_hash expected); ("definition", want) ];
  if stats.Engine.result_rows <> Relation.cardinality expected then
    fail "digest:rows" "%s: served %d rows, reference has %d" where
      stats.Engine.result_rows (Relation.cardinality expected)

let step_total steps = List.fold_left (fun acc (_, c) -> acc + c) 0 steps

(* One leg of the engine matrix: both planes × both domain counts (the
   multi-domain cells in {!cell_morsel}-row morsels) run [s] under
   [policy], serve the reference's digest, and must return
   [expected] with the τ and per-step log of [steps] and one span
   skeleton across the whole leg.  Failures are named [leg ^
   ":result"], [":tau"], [":steps"] and [":spans"], located by a
   [plane/policy/N-domain] cell. *)
let matrix ~leg ~policy ~expected ~steps db s =
  let tau = step_total steps in
  let want = definitional_hash expected in
  let reference = ref None in
  List.iter
    (fun plane ->
      List.iter
        (fun domains ->
          let where =
            Printf.sprintf "%s/%s/%d-domain" (Engine.plane_name plane)
              (Planner.policy_name policy) domains
          in
          let obs = Obs.make () in
          let cfg =
            Engine.Config.make ~plane ~domains ?morsel:(cell_morsel domains)
              ~policy ~obs ()
          in
          check_digest where cfg db s expected ~want;
          let r, stats = Engine.run cfg db s in
          if not (Relation.equal r expected) then
            fail (leg ^ ":result")
              "%s: %d rows, reference has %d (strategy %s)" where
              (Relation.cardinality r)
              (Relation.cardinality expected)
              (Strategy.to_string s);
          if stats.Engine.tuples_generated <> tau then
            fail (leg ^ ":tau") "%s: reported τ=%d, reference prices %d"
              where stats.Engine.tuples_generated tau;
          if not (step_log_equal stats.Engine.per_step steps) then
            fail (leg ^ ":steps") "%s: per-step log %a ≠ %a" where
              pp_step_log stats.Engine.per_step pp_step_log steps;
          let sk = skeleton obs in
          match !reference with
          | None -> reference := Some (where, sk)
          | Some (ref_where, ref_sk) ->
              if sk <> ref_sk then
                fail (leg ^ ":spans")
                  "%s: %d scan/join/semijoin spans with a different shape \
                   than %s's %d"
                  where (List.length sk) ref_where (List.length ref_sk))
        domain_counts)
    planes

let differential db s =
  guard @@ fun () ->
  matrix ~leg:"differential" ~policy:Planner.Hash_all ~expected:(Cost.eval db s)
    ~steps:(Cost.step_costs db s) db s

(* The hash join's order contract: inline and on the pool, at any
   worker count, it emits the same rows in the same order.  Every
   finisher sorts the root, so no digest sees that order; this check
   reads it on the unsorted frames, joining the case's strategy step by
   step on 1 domain and on 4 in {!cell_morsel}-row morsels. *)
let emission db s =
  guard @@ fun () ->
  let fdb = Frame.Db.of_database db in
  let rec go = function
    | Strategy.Leaf sch ->
        let f = Frame.Db.find fdb sch in
        (f, f)
    | Strategy.Join n ->
        let l1, l4 = go n.left and r1, r4 = go n.right in
        let j1 = Frame.natural_join ~domains:1 l1 r1
        and j4 = Frame.natural_join ~domains:4 ?morsel:(cell_morsel 4) l4 r4 in
        if not (Frame.same_emission j1 j4) then
          fail "emission:order"
            "%a: the 4-domain join emits its %d rows in another order than \
             the 1-domain join's %d"
            Scheme.Set.pp n.schemes (Frame.cardinality j4)
            (Frame.cardinality j1);
        (j1, j4)
  in
  ignore (go s)

(* The worst-case-optimal leg of the matrix.  On a cyclic strategy the
   [Wcoj] policy rewrites the whole plan into one n-ary node, so its τ
   and span shapes legitimately differ from the binary leg's.  The wcoj
   cells get their own expected τ/step log, derived from the lowered
   plan itself through the exact-cardinality cache, and must agree with
   each other across planes and domain counts. *)
let wcoj_steps cache plan =
  let rec go acc = function
    | Physical.Scan _ -> acc
    | Physical.Join (l, r) ->
        let acc = go (go acc l) r in
        let d = Scheme.Set.union (Physical.schemes l) (Physical.schemes r) in
        (d, Cost.Cache.card cache d) :: acc
    | Physical.Generic_join (ss, _) ->
        let d = Scheme.Set.of_list ss in
        (d, Cost.Cache.card cache d) :: acc
    | Physical.Semijoin_program _ | Physical.Ranked_enumerate _ ->
        invalid_arg "wcoj_steps: yannakakis node in a wcoj plan"
  in
  List.rev (go [] plan)

let wcoj_differential db s =
  guard @@ fun () ->
  let expected = Cost.eval db s in
  let plan = Planner.lower ~policy:Planner.Wcoj db s in
  let steps = wcoj_steps (Cost.Cache.create db) plan in
  (* On a cyclic strategy the single n-ary step must price at the full
     result — the τ certificate that the generic join materializes no
     binary intermediate at all. *)
  (match plan with
  | Physical.Generic_join _ ->
      let tau = step_total steps in
      let result_card = Relation.cardinality expected in
      if tau <> result_card then
        fail "wcoj:tau_shape" "generic join τ=%d ≠ |R_D|=%d" tau result_card
  | _ -> ());
  matrix ~leg:"wcoj" ~policy:Planner.Wcoj ~expected ~steps db s

(* The Yannakakis leg of the matrix.  Like the wcoj leg, the [yann]
   policy's τ and span shapes legitimately differ from every binary
   cell — semijoins generate no τ, and the join phase folds along the
   cost-chosen join tree — so its expected step log is derived from the
   lowered plan itself.  The derivation is the theorem the leg checks:
   after a full reduction (up then down sweep), every reduced relation
   is the projection of [R_D] onto its scheme, so the join phase's
   intermediate over any root-containing subtree prefix of
   [Jointree.join_order] is exactly [π_{prefix attrs}(R_D)] — the
   instance-optimality certificate (every intermediate ≤ |R_D|).
   Cyclic strategies fall through to the wcoj arm and are priced like
   that leg.  On acyclic plans the ranked enumerator is also checked:
   for several k, [Ranked_enumerate (rt, k)] must stream exactly the
   first k tuples of the sorted full output. *)
let yann_steps expected rt =
  match Jointree.join_order rt with
  | [] | [ _ ] -> []
  | first :: rest ->
      let _, _, steps =
        List.fold_left
          (fun (set, attrs, acc) s ->
            let set = Scheme.Set.add s set in
            let attrs = Attr.Set.union attrs s in
            let c = Relation.cardinality (Relation.project expected attrs) in
            (set, attrs, (set, c) :: acc))
          (Scheme.Set.singleton first, first, [])
          rest
      in
      List.rev steps

(* The step log a [yann]-lowered plan must report: the join phase's
   projections for a semijoin program, the exact cardinalities of its
   nodes for the binary or wcoj plan a cyclic strategy falls back to. *)
let yann_plan_steps db expected = function
  | Physical.Semijoin_program rt -> yann_steps expected rt
  | plan -> wcoj_steps (Cost.Cache.create db) plan

let yann_differential db s =
  guard @@ fun () ->
  let expected = Cost.eval db s in
  let plan = Planner.lower ~policy:Planner.Yannakakis db s in
  let steps = yann_plan_steps db expected plan in
  matrix ~leg:"yann" ~policy:Planner.Yannakakis ~expected ~steps db s;
  (* Ranked enumeration: top-k must be the k-prefix of the sorted full
     output, on every plane, with τ = the rows streamed. *)
  match plan with
  | Physical.Semijoin_program rt ->
      let full = Relation.tuples expected in
      let card = List.length full in
      let ks = List.sort_uniq compare [ 1; (card + 1) / 2; card; card + 3 ] in
      let prefix k = List.filteri (fun i _ -> i < k) full in
      List.iter
        (fun plane ->
          List.iter
            (fun k ->
              let where =
                Printf.sprintf "%s/topk k=%d" (Engine.plane_name plane) k
              in
              let cfg =
                Engine.Config.make ~plane ~domains:1
                  ~policy:Planner.Yannakakis ()
              in
              let r, stats =
                Engine.execute_plan cfg db
                  (Physical.Ranked_enumerate (rt, k))
              in
              let want = prefix k in
              if not (List.equal Tuple.equal (Relation.tuples r) want) then
                fail "yann:topk" "%s: %d rows ≠ the sorted %d-prefix"
                  where (Relation.cardinality r) (List.length want);
              if stats.Engine.tuples_generated <> List.length want then
                fail "yann:topk_tau" "%s: τ=%d ≠ %d rows streamed" where
                  stats.Engine.tuples_generated (List.length want))
            ks)
        planes
  | _ -> ()

(* ------------------------------------------------------------------ *)
(* Serve: the daemon's warm path against the cold engine.             *)
(* ------------------------------------------------------------------ *)

(* A second strategy over the same database whose per-step τ log
   differs from the case's — the probe that makes a cross-strategy
   plan-cache collision (the [serve.cache_stale_plan] bug) observable:
   a stale plan executes the wrong step sequence, and the response's
   τ log no longer matches the submitted strategy's cold run.  The two
   left-deep rebuilds below differ from each other in their first step
   whenever there are ≥ 3 leaves, so at most one of them can coincide
   with the case's log; with 2 leaves every strategy has the same
   one-step log and no probe exists. *)
let alt_strategy db s =
  match Strategy.leaves s with
  | first :: (_ :: _ :: _ as tl) as leaves ->
      let rotated = tl @ [ first ] in
      let steps0 = Cost.step_costs db s in
      List.find_opt
        (fun c -> not (step_log_equal (Cost.step_costs db c) steps0))
        [ Strategy.left_deep leaves; Strategy.left_deep rotated ]
  | _ -> None

let serve_steps_string steps = Json.to_string (Protocol.steps_json steps)

let serve_response_field name line =
  match Json.of_string_opt line with
  | None -> None
  | Some j -> Json.member name j

(* One serve instance per plane: submit the case's strategy twice
   (plan-cache miss then hit) plus the alternate-strategy probe, and
   require every response to match a cold [Engine.run] of the same
   request — rows, τ, result hash and the per-step τ log — with the τ
   logs of hit and miss identical.  A [timeout]/[overloaded]/[error]
   status is a failure here: the daemon under no injected fault must
   answer every query. *)
let serve_differential db s =
  guard @@ fun () ->
  let key = "check-case" in
  List.iter
    (fun plane ->
      let cfg =
        Engine.Config.make ~plane ~domains:1 ~policy:Planner.Hash_all
          ~obs:Obs.noop ()
      in
      let t = Serve.create ~timeout_ms:5_000 ~cfg () in
      let submit strat =
        Serve.submit_query t ~plane ~strategy:strat ~key
          ~db:(fun () -> db)
          ()
      in
      let check_response where strat line =
        let where = Printf.sprintf "%s/%s" (Engine.plane_name plane) where in
        (match Protocol.status_of_response line with
        | "ok" -> ()
        | status ->
            fail "serve:status" "%s: status %s (%s)" where status line);
        let cold_cfg =
          Engine.Config.make ~plane ~domains:1 ~policy:Planner.Hash_all
            ~obs:Obs.noop ()
        in
        let r, stats = Engine.run cold_cfg db strat in
        let expect name v =
          match serve_response_field name line with
          | Some got when got = v -> ()
          | got ->
              fail "serve:response"
                "%s: field %s = %s, cold run has %s" where name
                (match got with Some g -> Json.to_string g | None -> "absent")
                (Json.to_string v)
        in
        expect "rows" (Json.int stats.Engine.result_rows);
        expect "tau" (Json.int stats.Engine.tuples_generated);
        expect "hash"
          (Json.str (Protocol.hash_hex (Protocol.result_hash r)));
        match serve_response_field "steps" line with
        | Some steps
          when Json.to_string steps
               = serve_steps_string stats.Engine.per_step ->
            ()
        | Some steps ->
            fail "serve:steps" "%s: served τ log %s ≠ cold %s" where
              (Json.to_string steps)
              (serve_steps_string stats.Engine.per_step)
        | None -> fail "serve:steps" "%s: response carries no τ log" where
      in
      let miss = submit s in
      check_response "miss" s miss;
      let hit = submit s in
      check_response "hit" s hit;
      if
        serve_response_field "steps" miss <> serve_response_field "steps" hit
        || serve_response_field "tau" miss <> serve_response_field "tau" hit
      then
        fail "serve:determinism"
          "%s: plan-cache hit and miss disagree on τ log"
          (Engine.plane_name plane);
      match alt_strategy db s with
      | Some alt -> check_response "alt" alt (submit alt)
      | None -> ())
    planes

(* ------------------------------------------------------------------ *)
(* Metamorphic: rewrites that provably preserve result or cost.       *)
(* ------------------------------------------------------------------ *)

let rec mirror = function
  | Strategy.Leaf s -> Strategy.leaf s
  | Strategy.Join n -> Strategy.join (mirror n.right) (mirror n.left)

(* A pair of disjoint non-root subtrees, if any — candidates for
   [Transform.exchange].  The two children of any join qualify, so
   every strategy with at least one step has a pair. *)
let exchange_pair s =
  let root = Strategy.schemes s in
  let subs =
    List.filter
      (fun d -> not (Scheme.Set.equal d root))
      (Strategy.subtree_schemes s)
  in
  let rec first_pair = function
    | [] -> None
    | a :: rest -> (
        match
          List.find_opt (fun b -> Hypergraph.disjoint a b) rest
        with
        | Some b -> Some (a, b)
        | None -> first_pair rest)
  in
  first_pair subs

let metamorphic db s =
  guard @@ fun () ->
  let expected = Cost.eval db s in
  let tau = Cost.tau db s in
  (* Commuting every step is τ-invariant: each step still materializes
     the same intermediate scheme set. *)
  let m = mirror s in
  let tau_m = Cost.tau db m in
  if tau_m <> tau then
    fail "metamorphic:mirror_tau" "τ(%s)=%d but τ(mirror)=%d"
      (Strategy.to_string s) tau tau_m;
  if not (Relation.equal (Cost.eval db m) expected) then
    fail "metamorphic:mirror_result" "mirror of %s changed the result"
      (Strategy.to_string s);
  (* Exchanging disjoint substrategies preserves validity and the
     result (the leaf multiset is unchanged). *)
  (match exchange_pair s with
  | None -> ()
  | Some (a, b) ->
      let x = Transform.exchange s a b in
      (match Strategy.check x with
      | Ok () -> ()
      | Error msg ->
          fail "metamorphic:exchange_valid"
            "exchange %a ↔ %a produced an invalid strategy: %s"
            Scheme.Set.pp a Scheme.Set.pp b msg);
      if not (Scheme.Set.equal (Strategy.schemes x) (Strategy.schemes s))
      then
        fail "metamorphic:exchange_schemes"
          "exchange %a ↔ %a changed the scheme set" Scheme.Set.pp a
          Scheme.Set.pp b;
      if not (Relation.equal (Cost.eval db x) expected) then
        fail "metamorphic:exchange_result"
          "exchange %a ↔ %a changed the result of %s" Scheme.Set.pp a
          Scheme.Set.pp b (Strategy.to_string s));
  (* Any strategy over the same leaves computes the same relation. *)
  let ld = Strategy.left_deep (Strategy.leaves s) in
  if not (Relation.equal (Cost.eval db ld) expected) then
    fail "metamorphic:left_deep" "left-deep rebuild of %s changed the result"
      (Strategy.to_string s);
  (* Output-size sanity: each step is bounded by the product of its
     inputs, and the τ log must agree with the cache oracle. *)
  let cache = Cost.Cache.create db in
  List.iter
    (fun (d1, d2) ->
      let c1 = Cost.Cache.card cache d1
      and c2 = Cost.Cache.card cache d2 in
      let c12 = Cost.Cache.card cache (Scheme.Set.union d1 d2) in
      if c12 > c1 * c2 then
        fail "metamorphic:step_bound" "|%a ⋈ %a| = %d > %d × %d"
          Scheme.Set.pp d1 Scheme.Set.pp d2 c12 c1 c2)
    (Strategy.steps s);
  let base_product =
    List.fold_left
      (fun acc r -> acc * Relation.cardinality r)
      1 (Database.relations db)
  in
  let result_card = Relation.cardinality expected in
  if result_card > base_product then
    fail "metamorphic:result_bound" "|R_D| = %d > Π|Rᵢ| = %d" result_card
      base_product;
  List.iter
    (fun (d, c) ->
      let oracle = Cost.Cache.card cache d in
      if c <> oracle then
        fail "metamorphic:step_oracle"
          "step_costs says |%a| = %d, cache oracle says %d" Scheme.Set.pp d
          c oracle)
    (Cost.step_costs db s)

(* ------------------------------------------------------------------ *)
(* Theorems: the paper's postconditions against the exhaustive DP.    *)
(* ------------------------------------------------------------------ *)

(* C1–C4 read off {!Conditions.iter_triples} and
   {!Conditions.iter_pairs}: the definitions the mask decision must
   agree with. *)
let conditions_by_enumeration cache =
  let c1 = ref true and c1_strict = ref true in
  Conditions.iter_triples cache (fun w ->
      if w.Conditions.tau_e_e1 > w.tau_e_e2 then c1 := false;
      if w.tau_e_e1 >= w.tau_e_e2 then c1_strict := false;
      true);
  let c2 = ref true and c3 = ref true and c4 = ref true in
  Conditions.iter_pairs cache (fun w ->
      let j = w.Conditions.tau_join in
      if j > w.tau_1 && j > w.tau_2 then c2 := false;
      if j > w.tau_1 || j > w.tau_2 then c3 := false;
      if j < w.tau_1 || j < w.tau_2 then c4 := false;
      true);
  { Conditions.c1 = !c1; c1_strict = !c1_strict; c2 = !c2; c3 = !c3; c4 = !c4 }

let theorems db =
  guard @@ fun () ->
  let rep = Theorems.verify db in
  let refuted name = function
    | Theorems.Refuted -> fail "theorems:refuted" "%s came back Refuted" name
    | Theorems.Holds | Theorems.Vacuous _ -> ()
  in
  refuted "theorem 1" rep.Theorems.theorem1;
  refuted "theorem 2" rep.Theorems.theorem2;
  refuted "theorem 3" rep.Theorems.theorem3;
  (* Subspace minima must nest: a smaller search space can only be
     more expensive. *)
  if rep.Theorems.min_all > rep.Theorems.min_linear then
    fail "theorems:nesting" "min_all=%d > min_linear=%d" rep.Theorems.min_all
      rep.Theorems.min_linear;
  if rep.Theorems.min_all > rep.Theorems.min_cp_free then
    fail "theorems:nesting" "min_all=%d > min_cp_free=%d"
      rep.Theorems.min_all rep.Theorems.min_cp_free;
  (match rep.Theorems.min_linear_cp_free with
  | Some v when v < rep.Theorems.min_linear || v < rep.Theorems.min_cp_free
    ->
      fail "theorems:nesting"
        "min_linear_cp_free=%d below min_linear=%d or min_cp_free=%d" v
        rep.Theorems.min_linear rep.Theorems.min_cp_free
  | _ -> ());
  (* DP ground truth, two independent ways: the DP's optimum strategy
     must materialize to exactly the reported cost, and brute-force
     enumeration of the whole space must find the same minimum. *)
  (match Optimal.optimum db with
  | None -> fail "theorems:dp" "Optimal.optimum returned None"
  | Some r ->
      if r.Optimal.cost <> rep.Theorems.min_all then
        fail "theorems:dp" "DP cost %d ≠ report min_all %d" r.Optimal.cost
          rep.Theorems.min_all;
      let materialized = Cost.tau db r.Optimal.strategy in
      if materialized <> r.Optimal.cost then
        fail "theorems:dp"
          "DP claims τ=%d for %s but materialization gives %d" r.Optimal.cost
          (Strategy.to_string r.Optimal.strategy)
          materialized);
  let cache = Cost.Cache.create db in
  let oracle = Cost.Cache.card cache in
  let brute =
    Enumerate.fold_strategies Enumerate.All (Database.schemes db)
      ~init:max_int ~f:(fun acc s -> min acc (Cost.tau_oracle oracle s))
  in
  if brute <> rep.Theorems.min_all then
    fail "theorems:brute_force"
      "exhaustive enumeration min τ=%d, DP min_all=%d" brute
      rep.Theorems.min_all;
  (* Theorem 1's decision on the linear DP table against the
     enumeration of every optimal linear strategy it replaces. *)
  let by_dp = Optimal.linear_optima_cp_free cache in
  let by_enumeration =
    List.for_all
      (fun (r : Optimal.result) -> not (Strategy.uses_cartesian r.strategy))
      (Optimal.all_optima_cached ~subspace:Enumerate.Linear cache)
  in
  if by_dp <> by_enumeration || by_dp <> rep.Theorems.theorem1_conclusion then
    fail "theorems:theorem1"
      "linear DP says %b, enumeration says %b, report says %b" by_dp
      by_enumeration rep.Theorems.theorem1_conclusion;
  (* Every cached cardinality of the frame-counted cache, the
     product-priced unconnected ones included, against the materialized
     join of its sub-database. *)
  let u = Cost.Cache.universe cache in
  for m = 1 to Bitdb.full u do
    let d = Bitdb.set_of_mask u m in
    let joined =
      Relation.cardinality (Database.join_all (Database.restrict db d))
    in
    let cached = Cost.Cache.card cache d in
    if cached <> joined then
      fail "theorems:cache_exact"
        "frame cache says |%a| = %d, the join has %d rows" Scheme.Set.pp d
        cached joined
  done;
  (* The report's conditions, decided on masks, against the literal
     enumeration of their triples and pairs. *)
  let enumerated = conditions_by_enumeration cache in
  if enumerated <> rep.Theorems.conditions then
    fail "theorems:conditions" "decided %a, enumerated %a"
      Conditions.pp_summary rep.Theorems.conditions Conditions.pp_summary
      enumerated;
  (* The materializing seed cache gives the same report. *)
  if Theorems.verify ~backend:Cost.Cache.Seed db <> rep then
    fail "theorems:backends" "the seed and frame caches give different reports";
  if not (Theorems.lemma5_consistent db) then
    fail "theorems:lemma5" "monotone refinement inconsistent with Lemma 5"

(* ------------------------------------------------------------------ *)
(* Faults: graceful degradation or loud failure, never corruption.    *)
(* ------------------------------------------------------------------ *)

let faults db s =
  guard @@ fun () ->
  Failpoint.with_saved @@ fun () ->
  let tau = Cost.tau db s in
  (* A killed worker domain must not change pool results: survivors
     plus the serial fallback still complete every task. *)
  Failpoint.reset ();
  let multicore = Pool.workers 4 > 1 in
  (* Task 0 holds the calling domain (for up to a second) until a
     spawned worker has claimed a batch and tripped; otherwise the
     caller can drain these tiny tasks before any worker starts and the
     kill never fires. *)
  let await_kill () =
    let t0 = Obs.monotonic_time () in
    while
      multicore
      && Failpoint.hits Failpoint.Pool_worker_kill = 0
      && Obs.monotonic_time () -. t0 < 1.0
    do
      Domain.cpu_relax ()
    done
  in
  let tasks =
    Array.init 8 (fun i () ->
        if i = 0 then await_kill ();
        (i * 31) + Cost.tau db s)
  in
  let expected_tasks = Array.init 8 (fun i -> (i * 31) + tau) in
  Failpoint.enable Failpoint.Pool_worker_kill;
  let got = Pool.run ~domains:4 tasks in
  Failpoint.disable Failpoint.Pool_worker_kill;
  if got <> expected_tasks then
    fail "faults:pool_kill" "pool results changed under worker kill";
  if multicore && Failpoint.hits Failpoint.Pool_worker_kill = 0 then
    fail "faults:pool_kill"
      "worker-kill failpoint never fired on a multicore host";
  (* A poisoned τ-cache must detect its corrupt entries and bypass
     them: every read stays correct and the bypass counter moves. *)
  Failpoint.reset ();
  let reference = Cost.Cache.create db in
  let keys = Strategy.subtree_schemes s in
  let clean = List.map (Cost.Cache.card reference) keys in
  Failpoint.enable Failpoint.Cache_poison;
  let poisoned = Cost.Cache.create db in
  let first_read = List.map (Cost.Cache.card poisoned) keys in
  let second_read = List.map (Cost.Cache.card poisoned) keys in
  Failpoint.disable Failpoint.Cache_poison;
  if first_read <> clean || second_read <> clean then
    fail "faults:cache_poison" "a poisoned cache returned a corrupt value";
  if Cost.Cache.bypasses poisoned = 0 then
    fail "faults:cache_poison"
      "integrity guard never engaged: %d poisoned stores, 0 bypasses"
      (Failpoint.hits Failpoint.Cache_poison);
  (* Oversized estimates may change the join tree, never the answer:
     the result is the reference join, and the τ log is the one the
     lowered plan prices, whichever tree won. *)
  Failpoint.reset ();
  let expected = Cost.eval db s in
  Failpoint.enable Failpoint.Estimate_oversize;
  let cfg =
    Engine.Config.make ~plane:Engine.Seed ~domains:1
      ~policy:Planner.Yannakakis ()
  in
  let plan = Engine.lower cfg db s in
  let skewed, skewed_stats = Engine.execute_plan cfg db plan in
  Failpoint.disable Failpoint.Estimate_oversize;
  (match plan with
  | Physical.Semijoin_program _
    when Failpoint.hits Failpoint.Estimate_oversize = 0 ->
      fail "faults:estimate_oversize"
        "join-tree search never consulted the estimate oracle"
  | _ -> ());
  if not (Relation.equal skewed expected) then
    fail "faults:estimate_oversize"
      "the result under oversized estimates differs from the reference";
  let want = yann_plan_steps db expected plan in
  if not (step_log_equal skewed_stats.Engine.per_step want) then
    fail "faults:estimate_oversize" "τ log %a ≠ the lowered plan's %a"
      pp_step_log skewed_stats.Engine.per_step pp_step_log want;
  (* The planted frame-plane mutation must be visible in the τ log —
     this is the detector the self-test relies on.  R_D ≠ ∅ under the
     generators, but raw caller databases may produce τ = 0, where a
     lossy join has nothing to drop. *)
  Failpoint.reset ();
  if tau > 0 then begin
    Failpoint.enable Failpoint.Frame_lossy_join;
    let cfg =
      Engine.Config.make ~plane:Engine.Frame ~domains:1
        ~policy:Planner.Hash_all ()
    in
    let _, st = Engine.run cfg db s in
    Failpoint.disable Failpoint.Frame_lossy_join;
    if st.Engine.tuples_generated = tau then
      fail "faults:lossy_join"
        "planted frame-plane mutation went undetected (τ log unchanged at \
         %d)"
        tau
  end;
  (* Its acyclic-path twin: a lossy semijoin reducer must be visible in
     the yann cells — as a changed result or a changed τ log — whenever
     the strategy actually takes the semijoin-program path and the full
     join is non-empty (every non-empty semijoin output then loses its
     last row, and that row extends to at least one output tuple). *)
  Failpoint.reset ();
  (match Planner.lower ~policy:Planner.Yannakakis db s with
  | Physical.Semijoin_program _ when not (Relation.is_empty expected) ->
      Failpoint.enable Failpoint.Yann_lossy_semijoin;
      let cfg =
        Engine.Config.make ~plane:Engine.Frame ~domains:1
          ~policy:Planner.Yannakakis ()
      in
      let r, st = Engine.run cfg db s in
      Failpoint.disable Failpoint.Yann_lossy_semijoin;
      if Failpoint.hits Failpoint.Yann_lossy_semijoin = 0 then
        fail "faults:lossy_semijoin"
          "yann.lossy_semijoin never fired on a semijoin-program plan";
      if Relation.equal r expected then
        fail "faults:lossy_semijoin"
          "planted lossy semijoin went undetected (result unchanged at %d \
           rows, τ=%d)"
          (Relation.cardinality expected)
          st.Engine.tuples_generated
  | _ -> ());
  (* Serve: a stalled worker must degrade to a structured timeout
     error, never a crash or a wrong answer. *)
  Failpoint.reset ();
  let serve_cfg () =
    Engine.Config.make ~plane:Engine.Seed ~domains:1 ~policy:Planner.Hash_all
      ~obs:Obs.noop ()
  in
  Failpoint.enable Failpoint.Serve_worker_stall;
  let stall_t = Serve.create ~timeout_ms:1 ~cfg:(serve_cfg ()) () in
  let stalled =
    Serve.submit_query stall_t ~strategy:s ~key:"fault-stall"
      ~db:(fun () -> db)
      ()
  in
  Failpoint.disable Failpoint.Serve_worker_stall;
  if Failpoint.hits Failpoint.Serve_worker_stall = 0 then
    fail "faults:worker_stall" "serve.worker_stall never fired";
  if
    Protocol.status_of_response stalled <> "error"
    || serve_response_field "code" stalled <> Some (Json.Str "timeout")
  then
    fail "faults:worker_stall"
      "stalled worker did not answer with a timeout error: %s" stalled;
  (* Serve: the planted stale-plan cache collision must be visible in
     the response τ log — the alternate strategy comes back with the
     first strategy's step sequence.  Needs a probe strategy whose τ
     log differs (≥ 3 relations); smaller cases have nothing to
     collide. *)
  Failpoint.reset ();
  (match alt_strategy db s with
  | None -> ()
  | Some alt ->
      Failpoint.enable Failpoint.Serve_stale_plan;
      let t = Serve.create ~cfg:(serve_cfg ()) () in
      let submit strat =
        Serve.submit_query t ~strategy:strat ~key:"fault-stale"
          ~db:(fun () -> db)
          ()
      in
      let _first = submit s in
      let collided = submit alt in
      Failpoint.disable Failpoint.Serve_stale_plan;
      if Failpoint.hits Failpoint.Serve_stale_plan = 0 then
        fail "faults:stale_plan" "serve.cache_stale_plan never fired";
      let alt_steps = serve_steps_string (Cost.step_costs db alt) in
      (match serve_response_field "steps" collided with
      | Some steps when Json.to_string steps <> alt_steps -> ()
      | Some _ ->
          fail "faults:stale_plan"
            "planted stale-plan collision went undetected (τ log matches \
             the submitted strategy)"
      | None ->
          fail "faults:stale_plan" "collided response carries no τ log: %s"
            collided))

(* ------------------------------------------------------------------ *)
(* Twin: the coded database against its relation-built twin.          *)
(* ------------------------------------------------------------------ *)

(* A generated database is born coded and builds seed states on demand;
   its twin is built from those states and encodes its own dictionary,
   the path CSV input and the scenarios take.  Every plane × lowering
   policy cell must lower both to the same plan and give the
   same result, τ log, served digest and dictionary size. *)
let twin db s =
  guard @@ fun () ->
  let twin = Database.of_relations (Database.relations db) in
  List.iter
    (fun plane ->
      List.iter
        (fun policy ->
          let where =
            Printf.sprintf "%s/%s" (Engine.plane_name plane)
              (Planner.policy_name policy)
          in
          let cfg =
            Engine.Config.make ~plane ~domains:1 ~policy ~obs:Obs.noop ()
          in
          let run db =
            let plan = Engine.lower cfg db s in
            let r, stats = Engine.execute_plan cfg db plan in
            let digest, _ = Engine.execute_digest cfg db plan in
            (Physical.to_string plan, r, stats, digest)
          in
          let plan, r, st, d = run db and plan', r', st', d' = run twin in
          if plan <> plan' then
            fail "twin:plan" "%s: coded %s, relation-built %s" where plan plan';
          if not (Relation.equal r r') then
            fail "twin:result" "%s: results differ (%d vs %d rows)" where
              (Relation.cardinality r) (Relation.cardinality r');
          if not (step_log_equal st.Engine.per_step st'.Engine.per_step) then
            fail "twin:steps" "%s: coded %a, relation-built %a" where
              pp_step_log st.Engine.per_step pp_step_log st'.Engine.per_step;
          if not (Int64.equal d d') then
            fail "twin:digest" "%s: coded %s, relation-built %s" where
              (Protocol.hash_hex d) (Protocol.hash_hex d');
          match (st.Engine.frame, st'.Engine.frame) with
          | Some f, Some f'
            when f.Mj_engine.Frame_engine.dict_size
                 <> f'.Mj_engine.Frame_engine.dict_size ->
              fail "twin:dict" "%s: coded %d values, relation-built %d" where
                f.Mj_engine.Frame_engine.dict_size
                f'.Mj_engine.Frame_engine.dict_size
          | _ -> ())
        [ Planner.Hash_all; Planner.Wcoj; Planner.Yannakakis ])
    planes

(* ------------------------------------------------------------------ *)
(* One case through every applicable check.                           *)
(* ------------------------------------------------------------------ *)

let fault_pass = faults

let run_case ?(faults = true) d =
  let db, s = Gen.materialize d in
  let ( >>> ) o k = match o with Pass -> k () | Fail _ -> o in
  differential db s
  >>> fun () ->
  emission db s
  >>> fun () ->
  twin db s
  >>> fun () ->
  wcoj_differential db s
  >>> fun () ->
  yann_differential db s
  >>> fun () ->
  serve_differential db s
  >>> fun () ->
  metamorphic db s
  >>> fun () ->
  (if Database.size db <= 5 then theorems db else Pass)
  >>> fun () ->
  (* An externally injected fault (self-test, MJ_FAILPOINTS) must stay
     active for the whole case, so the fault pass — which saves,
     resets and restores failpoint state — only runs when none is. *)
  if faults && Failpoint.spec () = "" then fault_pass db s else Pass

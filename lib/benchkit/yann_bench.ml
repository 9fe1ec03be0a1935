open Mj_relation
module Planner = Mj_engine.Planner
module Engine = Mj_engine.Engine
module Frame_engine = Mj_engine.Frame_engine
module Physical = Mj_engine.Physical
module Json = Mj_obs.Json
module Strategy = Multijoin.Strategy

let attr fmt = Printf.ksprintf Attr.make fmt

(* The planted dangling-star population.  Hub rows fall into [k = 3]
   groups: group [g] carries a {e heavy} key at spokes [g] and
   [(g+1) mod k] — [fanout] spoke rows explode behind each — and a
   {e dangling} key at spoke [(g+2) mod k] that no spoke row matches,
   so the row dies there.  Whatever order a binary plan joins the
   spokes, the group whose dangling spoke comes {e last} is heavy at
   both earlier spokes and fans out by [fanout²] before it can be
   killed, so every binary order materializes an [Ω(n·fanout²/k)]
   intermediate — asymptotically above the [O(n·fanout)] input; only
   the [matching] rows (light and matched at every spoke) reach the
   output.  Yannakakis's up-sweep semijoins kill every dangling row
   for O(input) work before any join runs, so its join phase is
   [k · matching] tuples — the instance-optimal gap this bench
   prices. *)
let star_k = 3

let star_db ~n ~fanout ~matching =
  let k = star_k in
  let s i = attr "s%d" i and t i = attr "t%d" i in
  let hub_scheme = Attr.Set.of_list (List.init k s) in
  let hub_rows = ref [] in
  for j = 0 to n - 1 do
    let g = j mod k in
    let row =
      List.init k (fun i ->
          let v = if j >= matching && i = (g + 2) mod k then n + j else j in
          (s i, Value.int v))
    in
    hub_rows := Tuple.of_list row :: !hub_rows
  done;
  let spokes =
    List.init k (fun i ->
        let scheme = Attr.Set.of_list [ s i; t i ] in
        let rows = ref [] in
        for j = 0 to n - 1 do
          if j < matching then
            rows := Tuple.of_list [ (s i, Value.int j); (t i, Value.int 0) ] :: !rows
          else begin
            let g = j mod k in
            if i <> (g + 2) mod k then
              for tv = 0 to fanout - 1 do
                rows :=
                  Tuple.of_list [ (s i, Value.int j); (t i, Value.int tv) ]
                  :: !rows
              done
          end
        done;
        Relation.make scheme !rows)
  in
  Database.of_relations (Relation.make hub_scheme !hub_rows :: spokes)

(* The snowflake twin: hub → dimension → sub-dimension, two levels
   deep.  Heavy keys explode at the dimension level behind a link key
   the sub-dimension does not carry, so a binary fold multiplies every
   heavy group by [fanout] before the sub-dimensions can filter;
   Yannakakis reduces dimensions by sub-dimensions first and never
   multiplies at all. *)
let snowflake_db ~n ~fanout ~matching =
  let k = star_k in
  let d i = attr "d%d" i
  and u i = attr "u%d" i
  and e i = attr "e%d" i
  and w i = attr "w%d" i in
  let hub_scheme = Attr.Set.of_list (List.init k d) in
  let hub_rows = ref [] in
  for j = 0 to n - 1 do
    hub_rows :=
      Tuple.of_list (List.init k (fun i -> (d i, Value.int j))) :: !hub_rows
  done;
  let dims =
    List.init k (fun i ->
        let scheme = Attr.Set.of_list [ d i; u i; e i ] in
        let rows = ref [] in
        for j = 0 to n - 1 do
          if j < matching then
            rows :=
              Tuple.of_list
                [ (d i, Value.int j); (u i, Value.int 0); (e i, Value.int j) ]
              :: !rows
          else if j mod k = i then
            (* Heavy: [fanout] rows behind a dangling link key. *)
            for uv = 0 to fanout - 1 do
              rows :=
                Tuple.of_list
                  [
                    (d i, Value.int j); (u i, Value.int uv);
                    (e i, Value.int (n + j));
                  ]
                :: !rows
            done
          else
            rows :=
              Tuple.of_list
                [ (d i, Value.int j); (u i, Value.int 0); (e i, Value.int j) ]
              :: !rows
        done;
        Relation.make scheme !rows)
  in
  let subs =
    List.init k (fun i ->
        let scheme = Attr.Set.of_list [ e i; w i ] in
        let rows = ref [] in
        for j = 0 to matching - 1 do
          rows := Tuple.of_list [ (e i, Value.int j); (w i, Value.int 0) ] :: !rows
        done;
        Relation.make scheme !rows)
  in
  Database.of_relations ((Relation.make hub_scheme !hub_rows :: dims) @ subs)

let build_db shape ~n ~fanout ~matching =
  match shape with
  | "star" -> star_db ~n ~fanout ~matching
  | "snowflake" -> snowflake_db ~n ~fanout ~matching
  | s -> invalid_arg ("Yann_bench: unknown shape " ^ s)

(* The binary contender: the engine's left-to-right columnar fold on a
   pre-encoded database — the same kernels the binary policies run, so
   the row measures algorithms, not encoding. *)
let binary_join ?stats fdb d = Frame.Db.join_schemes ?stats ~domains:1 fdb d

(* Cross-plane certification: both planes × both domain counts under
   the yann policy must report the bit-identical relation and τ. *)
let certify db =
  let d = Database.schemes db in
  let s = Strategy.left_deep (Scheme.Set.elements d) in
  let reference = ref None in
  List.for_all
    (fun (plane, domains) ->
      let cfg =
        Engine.Config.make ~plane ~domains ~policy:Planner.Yannakakis ()
      in
      let r, st = Engine.run cfg db s in
      match !reference with
      | None ->
          reference := Some (r, st.Engine.tuples_generated);
          true
      | Some (r0, t0) ->
          Relation.equal r r0 && st.Engine.tuples_generated = t0)
    [
      (Engine.Seed, 1); (Engine.Seed, 4); (Engine.Frame, 1); (Engine.Frame, 4);
    ]

let bench_row ?floor ?(topk_k = 10) ~reps (shape, n, fanout, matching) =
  let db = build_db shape ~n ~fanout ~matching in
  let fdb = Frame.Db.of_database db in
  let d = Database.schemes db in
  let rt =
    match Planner.yann_tree db d with
    | Some rt -> rt
    | None -> invalid_arg ("Yann_bench: " ^ shape ^ " scheme is not acyclic")
  in
  (* Both contenders end in the engine's finisher — decode the root
     frame in value order — and count into fresh stats each rep, so
     [binary_probes] is one join's probes. *)
  let (binary_ms, (binary_r, bstats)), (yann_ms, (yann_r, yann_stats)) =
    Bench_core.race ~reps
      (fun () ->
        let stats = Frame.fresh_stats () in
        let f = binary_join ~stats fdb d in
        (Frame.to_relation ~stats f, stats))
      (fun () ->
        (* The Yannakakis contender is the engine's own semijoin
           program on the same pre-encoded database; τ is its join
           phase. *)
        Frame_engine.execute_plan ~domains:1 ~fdb db
          (Physical.Semijoin_program rt))
  in
  let binary_probes = bstats.Frame.probes in
  (* Ranked enumeration: the first [topk_k] tuples of the sorted full
     output, straight off the base frames — no reduction, no full
     join.  The probe counter is the output-sensitivity receipt. *)
  let tstats = Frame.fresh_stats () in
  let order = Attr.Set.elements (Scheme.Set.universe d) in
  let frames = List.map (Frame.Db.find fdb) (Scheme.Set.elements d) in
  let tk = Frame.topk ~stats:tstats ~order ~k:topk_k frames in
  let want =
    List.filteri
      (fun i _ -> i < topk_k)
      (Relation.tuples binary_r)
  in
  let topk_ok =
    List.equal Tuple.equal (Relation.tuples (Frame.to_relation tk)) want
  in
  let topk_probes = tstats.Frame.probes in
  Bench_core.(
    row ?floor
      ~checks:[ ("topk_probes < binary_probes", topk_probes < binary_probes) ]
      [
        ("experiment", Key (Json.str "yann"));
        ("shape", Key (Json.str shape));
        ("n", Key (Json.int n));
        ("fanout", Key (Json.int fanout));
        ("matching", Key (Json.int matching));
        ("reps", Info (Json.int reps));
        ("binary_ms", Ms binary_ms);
        ("yann_ms", Ms yann_ms);
        speedup binary_ms yann_ms;
        ("rows_out", Out (Json.int (Relation.cardinality yann_r)));
        ("tau_binary", Out (Json.int (Wcoj_bench.binary_tau fdb d)));
        ("tau_yann", Out (Json.int yann_stats.Frame_engine.tuples_generated));
        ("equal", Check (Relation.equal yann_r binary_r));
        ("cert_ok", Check (certify db));
        ("topk_k", Out (Json.int topk_k));
        ("topk_ok", Check topk_ok);
        ("topk_probes", Out (Json.int topk_probes));
        ("binary_probes", Out (Json.int binary_probes));
      ])

let run ?(quick = false) () =
  let rows =
    if quick then
      [
        bench_row ~floor:1.0 ~reps:3 ("star", 10_000, 8, 200);
        bench_row ~reps:3 ("snowflake", 10_000, 8, 200);
      ]
    else
      [
        bench_row ~floor:3.0 ~reps:3 ("star", 100_000, 16, 1_000);
        bench_row ~floor:3.0 ~reps:3 ("snowflake", 100_000, 16, 1_000);
        bench_row ~floor:1.0 ~reps:3 ("star", 10_000, 8, 200);
      ]
  in
  { Bench_core.name = "YANN"; meta = []; rows }

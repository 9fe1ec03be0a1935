open Mj_relation
module Obs = Mj_obs.Obs
module Json = Mj_obs.Json

type stats = {
  tuples_generated : int;
  result_rows : int;
  dict_size : int;
  probes : int;
  probe_hits : int;
  partitions : int;
  morsels : int;
  sorted_rows : int;
  per_step : (Scheme.Set.t * int) list;
}

let scheme_key d = Format.asprintf "%a" Scheme.Set.pp d

(* Per-execution state: the encoded database, the kernels' counters and
   the join-step probe histogram. *)
type ctx = {
  fdb : Frame.Db.t;
  fstats : Frame.stats;
  domains : int option;
  morsel : int option;
  obs : Obs.sink;
  jprobe : Obs.histogram; (* hash probes per join step *)
}

(* The planted mutations [frame.lossy_join] (the one
   [mjoin fuzz --self-test] leans on) and [yann.lossy_semijoin]:
   silently drop the last row of a non-empty join or semijoin output,
   exactly the class of kernel bug the differential legs exist to
   catch.  Never active outside an explicit failpoint activation. *)
let lossy point f =
  if Frame.cardinality f > 0 && Mj_failpoint.Failpoint.fire point then begin
    let r = Frame.to_relation f in
    let n = Relation.cardinality r in
    let keep = List.filteri (fun i _ -> i < n - 1) (Relation.tuples r) in
    Frame.of_relation (Frame.dict f) (Relation.make (Relation.scheme r) keep)
  end
  else f

let join ctx f1 f2 =
  let probes_before = ctx.fstats.Frame.probes in
  let j =
    Frame.natural_join ~obs:ctx.obs ?domains:ctx.domains ?morsel:ctx.morsel
      ~stats:ctx.fstats f1 f2
  in
  if Obs.enabled ctx.obs then
    Obs.observe ctx.jprobe
      (float_of_int (ctx.fstats.Frame.probes - probes_before));
  lossy Frame_lossy_join j

(* The attributes every "join" span opens with. *)
let join_attrs ~obs label node_schemes =
  if Obs.enabled obs then begin
    Obs.set_attr obs "algo" (Json.str label);
    Obs.set_attr obs "scheme" (Json.str (scheme_key node_schemes))
  end

(* The τ log of one walk. *)
type log = {
  mutable generated : int;
  mutable steps : (Scheme.Set.t * int) list;
}

(* Every τ-producing step ends here: its output cardinality joins the
   τ sum and the per-step log, and becomes the span's [rows]. *)
let record ~obs log node_schemes f =
  let n = Frame.cardinality f in
  log.generated <- log.generated + n;
  log.steps <- (node_schemes, n) :: log.steps;
  if Obs.enabled obs then Obs.set_attr obs "rows" (Json.int n);
  f

let scan ~obs ctx s =
  Obs.span obs "scan" (fun () ->
      let f =
        match Frame.Db.find ctx.fdb s with
        | f -> f
        | exception Not_found ->
            invalid_arg
              (Printf.sprintf "Frame_engine: scheme %s not in the database"
                 (Scheme.to_string s))
      in
      if Obs.enabled obs then begin
        Obs.set_attr obs "scheme"
          (Json.str (scheme_key (Scheme.Set.singleton s)));
        Obs.set_attr obs "rows" (Json.int (Frame.cardinality f))
      end;
      f)

(* The walker: a "scan" span per leaf and a "join" span per step, with
   attributes [scheme], [rows] and [algo], and the per-step τ log. *)
let walk ~obs ctx plan =
  let log = { generated = 0; steps = [] } in
  let rec run = function
    | Physical.Scan s -> scan ~obs ctx s
    | Physical.Join (l, r) ->
        Obs.span obs "join" (fun () ->
            let node_schemes =
              Scheme.Set.union (Physical.schemes l) (Physical.schemes r)
            in
            join_attrs ~obs "frame-hash" node_schemes;
            let left = run l in
            let right = run r in
            record ~obs log node_schemes (join ctx left right))
    | Physical.Generic_join (ss, order) ->
        (* One n-ary step: the whole sub-hypergraph is joined in a
           single worst-case-optimal pass, so the node contributes
           exactly one τ entry — its output cardinality — where a
           binary lowering would contribute one per internal step. *)
        Obs.span obs "join" (fun () ->
            let node_schemes = Scheme.Set.of_list ss in
            join_attrs ~obs "wcoj" node_schemes;
            if Obs.enabled obs then
              Obs.set_attr obs "order"
                (Json.str (String.concat "," (List.map Attr.to_string order)));
            record ~obs log node_schemes
              (Frame.Db.generic_join ~stats:ctx.fstats ctx.fdb ~order
                 node_schemes))
    | Physical.Semijoin_program rt -> yannakakis rt None
    | Physical.Ranked_enumerate (rt, k) -> yannakakis rt (Some k)
  (* Yannakakis over a rooted join tree: scan every node, sweep
     semijoins leaf-to-root then root-to-leaf (each a "semijoin" span
     with [scheme]/[rows]/[dir] attributes but NO τ entry — semijoins
     generate no tuples under the paper's measure), then either join the
     reduced frames root-outward (one "join" span and one τ entry per
     step, like any binary plan) or stream the [k] least rows of the
     reduced tree out of the leapfrog (one "topk" span, one τ
     entry: the ≤ k rows it streamed out). *)
  and yannakakis (rt : Mj_hypergraph.Jointree.rooted) limit =
    let order = Mj_hypergraph.Jointree.join_order rt in
    let items = List.map (fun s -> (s, ref (scan ~obs ctx s))) order in
    let item_of s = snd (List.find (fun (s', _) -> Scheme.equal s s') items) in
    let semijoin_step dir target source =
      let t = item_of target and sc = item_of source in
      Obs.span obs "semijoin" (fun () ->
          t :=
            lossy Yann_lossy_semijoin
              (Frame.semijoin ~stats:ctx.fstats !t !sc);
          if Obs.enabled obs then begin
            Obs.set_attr obs "scheme"
              (Json.str (scheme_key (Scheme.Set.singleton target)));
            Obs.set_attr obs "dir" (Json.str dir);
            Obs.set_attr obs "rows" (Json.int (Frame.cardinality !t))
          end)
    in
    List.iter
      (fun (ear, parent) -> semijoin_step "up" parent ear)
      rt.Mj_hypergraph.Jointree.elims;
    List.iter
      (fun (ear, parent) -> semijoin_step "down" ear parent)
      (List.rev rt.Mj_hypergraph.Jointree.elims);
    match limit with
    | None ->
        let join_step (acc_set, acc) s =
          Obs.span obs "join" (fun () ->
              let node_schemes = Scheme.Set.add s acc_set in
              join_attrs ~obs "frame-hash" node_schemes;
              ( node_schemes,
                record ~obs log node_schemes (join ctx acc !(item_of s)) ))
        in
        let root = rt.Mj_hypergraph.Jointree.root in
        snd
          (List.fold_left join_step
             (Scheme.Set.singleton root, !(item_of root))
             (List.tl order))
    | Some k ->
        Obs.span obs "topk" (fun () ->
            let node_schemes = Scheme.Set.of_list order in
            if Obs.enabled obs then begin
              Obs.set_attr obs "scheme" (Json.str (scheme_key node_schemes));
              Obs.set_attr obs "k" (Json.int k)
            end;
            let out_scheme =
              List.fold_left Attr.Set.union Attr.Set.empty order
            in
            record ~obs log node_schemes
              (Frame.topk ~stats:ctx.fstats
                 ~order:(Attr.Set.elements out_scheme)
                 ~k
                 (List.map (fun (_, f) -> !f) items)))
  in
  let root = Obs.span obs "execute-frame" (fun () -> run plan) in
  (root, log)

(* One walk, then a finisher on the root frame; the row count is the
   frame's own, so neither finisher has to decode to report it. *)
let run ~finish ~obs ?domains ?morsel db plan =
  let ctx =
    {
      (* The database's one encoding, built on its first read and only
         read by execution, so concurrent queries share it. *)
      fdb = Frame.Db.of_database db;
      fstats = Frame.fresh_stats ();
      domains;
      morsel;
      obs;
      jprobe = Obs.histogram obs "join.probes";
    }
  in
  let root, log = walk ~obs ctx plan in
  let result = finish ctx root in
  let dict_size = Frame.Dict.size (Frame.Db.dict ctx.fdb) in
  if Obs.enabled obs then begin
    Obs.add obs "exec.tuples_generated" log.generated;
    Obs.add obs "frame.dict_size" dict_size;
    Obs.add obs "frame.partitions" ctx.fstats.partitions;
    Obs.add obs "frame.morsels" ctx.fstats.morsels;
    Obs.add obs "frame.probes" ctx.fstats.probes;
    Obs.add obs "frame.probe_hits" ctx.fstats.probe_hits;
    Obs.add obs "frame.sorted_rows" ctx.fstats.sorted_rows
  end;
  ( result,
    {
      tuples_generated = log.generated;
      result_rows = Frame.cardinality root;
      dict_size;
      probes = ctx.fstats.probes;
      probe_hits = ctx.fstats.probe_hits;
      partitions = ctx.fstats.partitions;
      morsels = ctx.fstats.morsels;
      sorted_rows = ctx.fstats.sorted_rows;
      per_step = List.rev log.steps;
    } )

(* Join outputs are left unsorted; each finisher walks the root in value
   order by one order pass, counted in [ctx.fstats]. *)
let execute_plan ?(obs = Obs.noop) ?domains ?morsel db plan =
  run ~obs ?domains ?morsel db plan ~finish:(fun ctx f ->
      Frame.to_relation ~stats:ctx.fstats f)

let execute_digest ?(obs = Obs.noop) ?domains ?morsel db plan =
  run ~obs ?domains ?morsel db plan ~finish:(fun ctx f ->
      Obs.span obs "serve.certify" (fun () ->
          Frame.digest ~stats:ctx.fstats f))

let execute_stats ?(obs = Obs.noop) ?domains ?morsel db plan =
  snd (run ~obs ?domains ?morsel db plan ~finish:(fun _ _ -> ()))

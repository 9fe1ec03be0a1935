open Mj_relation
module Obs = Mj_obs.Obs

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

(* The columnar plane, plugged into the generic Driver walker:
   intermediates are dictionary-encoded frames and every binary step
   runs the one columnar hash kernel. *)
module Frame_plane = struct
  let name = "frame"
  let root_span = "execute-frame"

  type item = Frame.t

  type ctx = {
    fdb : Frame.Db.t;
    fstats : Frame.stats;
    domains : int option;
    morsel : int option;
    obs : Obs.sink;
    jprobe : Obs.histogram; (* hash probes per join step *)
  }

  let scan ctx s =
    match Frame.Db.find ctx.fdb s with
    | f -> f
    | exception Not_found ->
        invalid_arg
          (Printf.sprintf "Frame_engine: scheme %s not in the database"
             (Scheme.to_string s))

  (* The planted mutations [frame.lossy_join] (the one
     [mjoin fuzz --self-test] leans on) and [yann.lossy_semijoin]:
     silently drop the last row of a non-empty join or semijoin output,
     exactly the class of plane-local bug the differential legs exist
     to catch.  Never active outside an explicit failpoint
     activation. *)
  let lossy point f =
    if Frame.cardinality f > 0 && Mj_failpoint.Failpoint.fire point then begin
      let r = Frame.to_relation f in
      let n = Relation.cardinality r in
      let keep = List.filteri (fun i _ -> i < n - 1) (Relation.tuples r) in
      Frame.of_relation (Frame.dict f) (Relation.make (Relation.scheme r) keep)
    end
    else f

  let join ctx ~common:_ f1 f2 =
    let probes_before = ctx.fstats.Frame.probes in
    let j =
      Frame.natural_join ~obs:ctx.obs ?domains:ctx.domains ?morsel:ctx.morsel
        ~stats:ctx.fstats f1 f2
    in
    if Obs.enabled ctx.obs then
      Obs.observe ctx.jprobe
        (float_of_int (ctx.fstats.Frame.probes - probes_before));
    lossy Frame_lossy_join j

  let semijoin ctx ~common:_ f1 f2 =
    lossy Yann_lossy_semijoin (Frame.semijoin ~stats:ctx.fstats f1 f2)

  let ranked ctx ~order ~k items =
    Frame.topk ~stats:ctx.fstats ~order ~k (List.map snd items)

  let generic_join ctx ~schemes ~order =
    Frame.Db.generic_join ~stats:ctx.fstats ctx.fdb ~order
      (Scheme.Set.of_list schemes)

  let cardinality = Frame.cardinality
  let note_step _ctx _n = ()
  let join_label = "frame-hash"
  (* Join outputs are left unsorted; each finisher walks the root in
     value order by one order pass, counted in [ctx.fstats]. *)
  let to_relation ctx _scheme f = Frame.to_relation ~stats:ctx.fstats f
  let digest ctx _scheme f = Frame.digest ~stats:ctx.fstats f
end

module Drive = Driver.Make (Frame_plane)

(* One walk, then a finisher on the root frame; the row count is the
   frame's own, so neither finisher has to decode to report it. *)
let run ~finish ~obs ?domains ?morsel ?fdb db plan =
  let ctx =
    {
      (* A caller-supplied [fdb] (the serve daemon's per-database warm
         dictionary) skips the per-call re-encode; execution only reads
         it, so one encoding can serve concurrent queries. *)
      Frame_plane.fdb =
        (match fdb with
        | Some fdb -> fdb
        | None -> Frame.Db.of_database db);
      fstats = Frame.fresh_stats ();
      domains;
      morsel;
      obs;
      jprobe = Obs.histogram obs "join.probes";
    }
  in
  let ((_, root) as walked), (log : Driver.step_log) =
    Drive.walk ~obs ctx plan
  in
  let result = finish ctx walked in
  let dict_size = Frame.Dict.size (Frame.Db.dict ctx.fdb) in
  if Obs.enabled obs then begin
    Obs.add obs "exec.tuples_generated" log.tuples_generated;
    Obs.add obs "frame.dict_size" dict_size;
    Obs.add obs "frame.partitions" ctx.fstats.partitions;
    Obs.add obs "frame.morsels" ctx.fstats.morsels;
    Obs.add obs "frame.probes" ctx.fstats.probes;
    Obs.add obs "frame.probe_hits" ctx.fstats.probe_hits;
    Obs.add obs "frame.sorted_rows" ctx.fstats.sorted_rows
  end;
  ( result,
    {
      tuples_generated = log.tuples_generated;
      result_rows = Frame.cardinality root;
      dict_size;
      probes = ctx.fstats.probes;
      probe_hits = ctx.fstats.probe_hits;
      partitions = ctx.fstats.partitions;
      morsels = ctx.fstats.morsels;
      sorted_rows = ctx.fstats.sorted_rows;
      per_step = log.per_step;
    } )

let execute_plan ?(obs = Obs.noop) ?domains ?morsel ?fdb db plan =
  run ~obs ?domains ?morsel ?fdb db plan
    ~finish:(fun ctx (scheme, f) -> Frame_plane.to_relation ctx scheme f)

let execute_digest ?(obs = Obs.noop) ?domains ?morsel ?fdb db plan =
  run ~finish:(Drive.certify ~obs) ~obs ?domains ?morsel ?fdb db plan

let execute_stats ?(obs = Obs.noop) ?domains ?morsel db plan =
  snd (run ~obs ?domains ?morsel db plan ~finish:(fun _ _ -> ()))

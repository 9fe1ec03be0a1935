open Mj_relation
open Multijoin
module Obs = Mj_obs.Obs
module Json = Mj_obs.Json

type stats = {
  tuples_scanned : int;
  tuples_generated : int;
  comparisons : int;
  hash_probes : int;
  max_materialized : int;
  result_rows : int;
  per_step : (Scheme.Set.t * int) list;
}

type index_cache = unit

let index_cache () = ()

(* Execution statistics live in an Mj_obs registry; the handles below
   are mutable records, so bumping one is a field assignment — the same
   cost as the ad-hoc mutable record this replaced.  Holding the
   registry lets [execute] fold the totals into a caller's sink. *)
type counters = {
  reg : Obs.registry;
  scanned : Obs.counter;
  generated : Obs.counter;
  compared : Obs.counter;
  probed : Obs.counter;
  peak : Obs.counter;
  jprobe : Obs.histogram; (* hash probes per join step *)
}

let fresh () =
  let reg = Obs.registry () in
  {
    reg;
    scanned = Obs.reg_counter reg "exec.tuples_scanned";
    generated = Obs.reg_counter reg "exec.tuples_generated";
    compared = Obs.reg_counter reg "exec.comparisons";
    probed = Obs.reg_counter reg "exec.hash_probes";
    peak = Obs.reg_counter reg "exec.max_materialized";
    jprobe = Obs.reg_histogram reg "join.probes";
  }

let note_materialized c n = Obs.record_max c.peak n

(* The one binary kernel, over tuple lists (the materializing engine
   keeps children as lists).  It compiles its merge ([Tuple.merger])
   and its key ([Tuple.key_extractor]) once, so a generated tuple costs
   a probe and a copy, and all of one join's output rows share one
   header. *)
let hash_join c common left right =
  (* Build on the right, probe with the left. *)
  let key = Tuple.key_extractor common and merge = Tuple.merger () in
  let table = Hashtbl.create (max 16 (List.length right)) in
  List.iter (fun t2 -> Hashtbl.add table (key t2) t2) right;
  note_materialized c (List.length right);
  let acc = ref [] in
  List.iter
    (fun t1 ->
      Obs.incr c.probed 1;
      List.iter
        (fun t2 -> acc := merge t1 t2 :: !acc)
        (Hashtbl.find_all table (key t1)))
    left;
  List.rev !acc

let base_relation db s =
  match Database.find db s with
  | r -> r
  | exception Not_found ->
      invalid_arg
        (Printf.sprintf "Exec: scheme %s not in the database"
           (Scheme.to_string s))

(* The seed row plane, plugged into the generic Driver walker:
   intermediates are materialized tuple lists and every binary step
   runs [hash_join]. *)
module Seed_plane = struct
  let name = "seed"
  let root_span = "execute"

  type item = Tuple.t list
  type ctx = { c : counters; db : Database.t }

  let scan ctx s =
    let tuples = Relation.tuples (base_relation ctx.db s) in
    Obs.incr ctx.c.scanned (List.length tuples);
    tuples

  let join ctx ~common left right =
    let probes_before = Obs.value ctx.c.probed in
    let out = hash_join ctx.c common left right in
    Obs.observe ctx.c.jprobe
      (float_of_int (Obs.value ctx.c.probed - probes_before));
    out

  (* The reference backtracker shared by the generic join and the
     ranked (top-k) enumerator: bind the attributes of [order] one at a
     time, intersecting the sorted distinct values each participating
     relation still allows under the partial assignment, and recurse
     under every common value.  Deliberately simple — tuple lists are
     re-filtered per binding — because this plane exists to certify the
     frame plane's kernels: both must produce the identical canonical
     relation.  Values are visited in ascending [Value.compare] order at
     every level, so emissions stream out in lexicographic order of
     [order] — with [order] the sorted attributes of the union scheme,
     that is exactly [Tuple.compare] order, and stopping after [limit]
     emissions yields the top-k. *)
  exception Budget_spent

  let backtrack ctx ?limit rels order =
    let out = ref [] in
    let emitted = ref 0 in
    let emit t =
      out := t :: !out;
      incr emitted;
      match limit with
      | Some k when !emitted >= k -> raise Budget_spent
      | _ -> ()
    in
    let rec go bound rels = function
      | [] -> emit (Tuple.of_list (List.rev bound))
      | a :: attrs ->
          let holders, others =
            List.partition (fun (s, _) -> Attr.Set.mem a s) rels
          in
          let values_of (_, tuples) =
            List.sort_uniq Value.compare
              (List.map (fun t -> Tuple.get t a) tuples)
          in
          let inter xs ys =
            let rec go xs ys =
              match (xs, ys) with
              | [], _ | _, [] -> []
              | x :: xtl, y :: ytl ->
                  Obs.incr ctx.c.compared 1;
                  let cmp = Value.compare x y in
                  if cmp < 0 then go xtl ys
                  else if cmp > 0 then go xs ytl
                  else x :: go xtl ytl
            in
            go xs ys
          in
          let common =
            match List.map values_of holders with
            | [] -> assert false (* every order attribute has a holder *)
            | vs :: rest -> List.fold_left inter vs rest
          in
          List.iter
            (fun v ->
              let holders' =
                List.map
                  (fun (s, tuples) ->
                    ( s,
                      List.filter
                        (fun t -> Value.equal (Tuple.get t a) v)
                        tuples ))
                  holders
              in
              go ((a, v) :: bound) (holders' @ others) attrs)
            common
    in
    (try go [] rels order with Budget_spent -> ());
    List.rev !out

  let generic_join ctx ~schemes ~order =
    let rels =
      List.map
        (fun s ->
          let tuples = Relation.tuples (base_relation ctx.db s) in
          Obs.incr ctx.c.scanned (List.length tuples);
          (s, tuples))
        schemes
    in
    backtrack ctx rels order

  let semijoin ctx ~common left right =
    let key = Tuple.key_extractor common in
    let table = Hashtbl.create (max 16 (List.length right)) in
    List.iter (fun t -> Hashtbl.replace table (key t) ()) right;
    note_materialized ctx.c (List.length right);
    List.filter
      (fun t ->
        Obs.incr ctx.c.probed 1;
        Hashtbl.mem table (key t))
      left

  let ranked ctx ~order ~k rels =
    if k <= 0 then [] else backtrack ctx ~limit:k rels order

  let cardinality = List.length

  let note_step ctx n =
    Obs.incr ctx.c.generated n;
    note_materialized ctx.c n

  let join_label = "hash"
  let to_relation _ctx scheme tuples = Relation.make scheme tuples
  let digest ctx scheme tuples = Relation.digest (to_relation ctx scheme tuples)
end

module Drive = Driver.Make (Seed_plane)

(* One walk, then a finisher that makes the answer of the root tuple
   list and reports its row count. *)
let run ~finish ~obs db plan =
  let c = fresh () in
  let ctx = { Seed_plane.c; db } in
  let root, (log : Driver.step_log) = Drive.walk ~obs ctx plan in
  let out, result_rows = finish ctx root in
  Obs.merge_registry obs c.reg;
  ( out,
    {
      tuples_scanned = Obs.value c.scanned;
      tuples_generated = Obs.value c.generated;
      comparisons = Obs.value c.compared;
      hash_probes = Obs.value c.probed;
      max_materialized = Obs.value c.peak;
      result_rows;
      per_step = log.per_step;
    } )

let execute ?(obs = Obs.noop) db plan =
  run ~obs db plan ~finish:(fun ctx (scheme, tuples) ->
      let r = Seed_plane.to_relation ctx scheme tuples in
      (r, Relation.cardinality r))

(* The row count is the root list's length — the plane's own count, the
   one every τ step uses — so a kernel that emitted a duplicate row
   would report more rows than the answer has, not hide it. *)
let execute_digest ?(obs = Obs.noop) db plan =
  run ~obs db plan ~finish:(fun ctx ((_, tuples) as root) ->
      (Drive.certify ~obs ctx root, Seed_plane.cardinality tuples))

let execute_stats ?(obs = Obs.noop) db plan =
  snd
    (run ~obs db plan ~finish:(fun _ (_, tuples) ->
         ((), Seed_plane.cardinality tuples)))

type pipeline_stats = {
  emitted_per_stage : int list;
  peak_buffer : int;
  result_size : int;
}

let execute_pipelined ?(obs = Obs.noop) db strategy =
  if not (Strategy.is_linear strategy) then
    invalid_arg "Exec.execute_pipelined: strategy is not linear";
  (* Normalize the spine into a join order: the leaf order of a linear
     strategy read so that each element joins the accumulated prefix. *)
  let rec order = function
    | Strategy.Leaf s -> [ s ]
    | Strategy.Join { left; right = Strategy.Leaf s; _ } -> order left @ [ s ]
    | Strategy.Join { left = Strategy.Leaf s; right; _ } -> order right @ [ s ]
    | Strategy.Join _ -> assert false
  in
  match order strategy with
  | [] -> assert false
  | first :: rest ->
      Obs.span obs "execute-pipelined" (fun () ->
          let base s =
            match Database.find db s with
            | r -> r
            | exception Not_found ->
                invalid_arg
                  (Printf.sprintf "Exec: scheme %s not in the database"
                     (Scheme.to_string s))
          in
          let peak = ref 0 in
          let counts = ref [] in
          (* Stream the accumulated prefix as a Seq; each stage wraps the
             previous one with a hash-table lookup on a base relation. *)
          let stage (seq, acc_scheme) s =
            Obs.span obs "pipeline-stage" (fun () ->
                let r = base s in
                let common = Attr.Set.inter acc_scheme s in
                let key = Tuple.key_extractor common in
                let merge = Tuple.merger () in
                let table = Hashtbl.create (max 16 (Relation.cardinality r)) in
                Relation.iter (fun t -> Hashtbl.add table (key t) t) r;
                peak := max !peak (Relation.cardinality r);
                if Obs.enabled obs then begin
                  Obs.set_attr obs "scheme" (Json.str (Scheme.to_string s));
                  Obs.set_attr obs "build_rows"
                    (Json.int (Relation.cardinality r))
                end;
                let emitted = ref 0 in
                let count = Seq.map (fun t -> incr emitted; t) in
                let joined =
                  Seq.concat_map
                    (fun t1 ->
                      List.to_seq
                        (List.map (merge t1) (Hashtbl.find_all table (key t1))))
                    seq
                in
                counts := emitted :: !counts;
                (count joined, Attr.Set.union acc_scheme s))
          in
          let first_rel = base first in
          peak := Relation.cardinality first_rel;
          let seq0 = List.to_seq (Relation.tuples first_rel) in
          let final_seq, final_scheme =
            List.fold_left stage (seq0, first) rest
          in
          (* Drain the pipeline once; the per-stage counters fill in as
             the stream flows. *)
          let out =
            Obs.span obs "pipeline-drain" (fun () -> List.of_seq final_seq)
          in
          let result = Relation.make final_scheme out in
          let emitted_per_stage = List.rev_map (fun r -> !r) !counts in
          if Obs.enabled obs then begin
            Obs.add obs "exec.tuples_generated"
              (List.fold_left ( + ) 0 emitted_per_stage);
            Obs.record_max (Obs.counter obs "exec.peak_buffer") !peak;
            Obs.add obs "exec.result_rows" (Relation.cardinality result)
          end;
          ( result,
            {
              emitted_per_stage;
              peak_buffer = !peak;
              result_size = Relation.cardinality result;
            } ))

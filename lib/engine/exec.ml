open Mj_relation
open Multijoin
module Obs = Mj_obs.Obs
module Json = Mj_obs.Json

type index_cache = unit

let index_cache () = ()

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

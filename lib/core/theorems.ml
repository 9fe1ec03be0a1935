open Mj_relation
open Mj_hypergraph

type status =
  | Holds
  | Vacuous of string
  | Refuted

let pp_status fmt = function
  | Holds -> Format.pp_print_string fmt "holds"
  | Vacuous why -> Format.fprintf fmt "vacuous (%s)" why
  | Refuted -> Format.pp_print_string fmt "REFUTED"

type report = {
  connected : bool;
  nonempty_result : bool;
  conditions : Conditions.summary;
  min_all : int;
  min_linear : int;
  min_cp_free : int;
  min_linear_cp_free : int option;
  theorem1 : status;
  theorem1_conclusion : bool;
  theorem2 : status;
  theorem2_conclusion : bool;
  theorem3 : status;
  theorem3_conclusion : bool;
}

let classify hypotheses conclusion =
  match List.find_opt (fun (ok, _) -> not ok) hypotheses with
  | Some (_, name) -> Vacuous name
  | None -> if conclusion then Holds else Refuted

let verify ?obs ?backend db =
  let d = Database.schemes db in
  let connected = Hypergraph.connected d in
  (* One shared τ-oracle cache backs R_D ≠ ∅, the condition checkers,
     all four optimum DPs and Theorem 1's decision: every connected
     sub-database is counted at most once for the whole report. *)
  let cache = Cost.Cache.create ?obs ?backend db in
  let nonempty_result =
    Cost.Cache.card_mask cache (Bitdb.full (Cost.Cache.universe cache)) > 0
  in
  let conditions = Conditions.summarize_cached cache in
  let cost_of subspace =
    Option.map
      (fun (r : Optimal.result) -> r.cost)
      (Optimal.optimum_cached ~subspace cache)
  in
  let min_all = Option.get (cost_of Enumerate.All) in
  let min_linear = Option.get (cost_of Enumerate.Linear) in
  let min_cp_free = Option.get (cost_of Enumerate.Cp_free) in
  let min_linear_cp_free = cost_of Enumerate.Linear_cp_free in
  (* Theorem 1's conclusion quantifies over every optimal linear
     strategy. *)
  let theorem1_conclusion = Optimal.linear_optima_cp_free cache in
  let theorem2_conclusion = min_cp_free = min_all in
  let theorem3_conclusion = min_linear_cp_free = Some min_all in
  let base_hyps =
    [ (connected, "D not connected"); (nonempty_result, "R_D empty") ]
  in
  {
    connected;
    nonempty_result;
    conditions;
    min_all;
    min_linear;
    min_cp_free;
    min_linear_cp_free;
    theorem1 =
      classify
        (base_hyps @ [ (conditions.c1_strict, "C1' fails") ])
        theorem1_conclusion;
    theorem1_conclusion;
    theorem2 =
      classify
        (base_hyps
        @ [ (conditions.c1, "C1 fails"); (conditions.c2, "C2 fails") ])
        theorem2_conclusion;
    theorem2_conclusion;
    theorem3 =
      classify (base_hyps @ [ (conditions.c3, "C3 fails") ]) theorem3_conclusion;
    theorem3_conclusion;
  }

let verify_many ?obs ?domains ?backend dbs =
  (* Each database gets its own cache; reports merge in input order, so
     the output is independent of the domain count.  With tracing on,
     every database's verification records into its own child sink —
     the merged trace shows one "verify" lane entry per worker. *)
  Array.to_list
    (Mj_pool.Pool.run_traced ?obs ?domains
       (Array.of_list
          (List.map
             (fun db child ->
               Mj_obs.Obs.span child "verify" (fun () ->
                   verify ~obs:child ?backend db))
             dbs)))

let lemma5_consistent db =
  let nonempty = not (Relation.is_empty (Database.join_all db)) in
  let summary = Conditions.summarize db in
  (not (nonempty && summary.c3)) || summary.c1

let pp_report fmt r =
  Format.fprintf fmt
    "@[<v>connected: %b, R_D nonempty: %b@,conditions: %a@,\
     min tau — all: %d, linear: %d, cp-free: %d, linear-cp-free: %s@,\
     Theorem 1: %a (optimal linear all cp-free: %b)@,\
     Theorem 2: %a (cp-free matches optimum: %b)@,\
     Theorem 3: %a (linear-cp-free matches optimum: %b)@]"
    r.connected r.nonempty_result Conditions.pp_summary r.conditions r.min_all
    r.min_linear r.min_cp_free
    (match r.min_linear_cp_free with
    | Some c -> string_of_int c
    | None -> "-")
    pp_status r.theorem1 r.theorem1_conclusion pp_status r.theorem2
    r.theorem2_conclusion pp_status r.theorem3 r.theorem3_conclusion

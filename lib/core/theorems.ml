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

(* A minimum at [max_int] is a saturated sum, so a conclusion comparing
   it decides nothing: whatever the hypotheses, the theorem is
   undecided and its conclusion reads false (not established). *)
let saturates = "τ saturates"

let classify ~saturated hypotheses conclusion =
  match List.find_opt (fun (ok, _) -> not ok) hypotheses with
  | _ when saturated -> Vacuous saturates
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
  let theorem1 = Optimal.linear_optima_cp_free cache in
  let theorem1_conclusion = theorem1 = Some true in
  let saturated = min_all = max_int in
  let theorem2_conclusion = (not saturated) && min_cp_free = min_all in
  let theorem3_conclusion =
    (not saturated) && min_linear_cp_free = Some min_all
  in
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
      classify ~saturated:(theorem1 = None)
        (base_hyps @ [ (conditions.c1_strict, "C1' fails") ])
        theorem1_conclusion;
    theorem1_conclusion;
    theorem2 =
      classify ~saturated
        (base_hyps
        @ [ (conditions.c1, "C1 fails"); (conditions.c2, "C2 fails") ])
        theorem2_conclusion;
    theorem2_conclusion;
    theorem3 =
      classify ~saturated
        (base_hyps @ [ (conditions.c3, "C3 fails") ])
        theorem3_conclusion;
    theorem3_conclusion;
  }

let lemma5_consistent db =
  let nonempty = not (Relation.is_empty (Database.join_all db)) in
  let summary = Conditions.summarize db in
  (not (nonempty && summary.c3)) || summary.c1

let pp_conclusion status fmt b =
  if status = Vacuous saturates then Format.pp_print_string fmt "undecided"
  else Format.pp_print_bool fmt b

let pp_report fmt r =
  Format.fprintf fmt
    "@[<v>connected: %b, R_D nonempty: %b@,conditions: %a@,\
     min tau — all: %d, linear: %d, cp-free: %d, linear-cp-free: %s@,\
     Theorem 1: %a (optimal linear all cp-free: %a)@,\
     Theorem 2: %a (cp-free matches optimum: %a)@,\
     Theorem 3: %a (linear-cp-free matches optimum: %a)@]"
    r.connected r.nonempty_result Conditions.pp_summary r.conditions r.min_all
    r.min_linear r.min_cp_free
    (match r.min_linear_cp_free with
    | Some c -> string_of_int c
    | None -> "-")
    pp_status r.theorem1 (pp_conclusion r.theorem1) r.theorem1_conclusion
    pp_status r.theorem2 (pp_conclusion r.theorem2) r.theorem2_conclusion
    pp_status r.theorem3 (pp_conclusion r.theorem3) r.theorem3_conclusion

open Mj_relation
open Mj_hypergraph

type witness = {
  j1 : Hypergraph.t;
  j2 : Hypergraph.t;
  tau_join : int;
  tau_1 : int;
  tau_2 : int;
}

let violations_c4 ?limit db =
  let d = Database.schemes db in
  if not (Gyo.is_alpha_acyclic d) then
    invalid_arg "Conditions_jt: database scheme is not alpha-acyclic";
  if Scheme.Set.cardinal d > 8 then
    invalid_arg "Conditions_jt: more than 8 relations";
  let trees = Jointree.all_join_trees d in
  let jt_connected e = List.exists (fun t -> Jointree.induces_subtree t e) trees in
  (* Precompute connectivity for all non-empty subsets. *)
  let subsets = Hypergraph.subsets d in
  let connected_subsets = List.filter jt_connected subsets in
  let key e = String.concat "|" (List.map Scheme.to_string (Scheme.Set.elements e)) in
  let connected_table = Hashtbl.create 64 in
  List.iter (fun e -> Hashtbl.replace connected_table (key e) ()) connected_subsets;
  let is_connected e = Hashtbl.mem connected_table (key e) in
  let nonempty_subsets_of e =
    List.filter (fun s -> Scheme.Set.subset s e) subsets
  in
  let linked e1 e2 =
    List.exists
      (fun f1 ->
        List.exists
          (fun f2 -> is_connected (Scheme.Set.union f1 f2))
          (nonempty_subsets_of e2))
      (nonempty_subsets_of e1)
  in
  let oracle = Cost.cardinality_oracle db in
  let acc = ref [] in
  let count = ref 0 in
  let budget () = match limit with None -> true | Some l -> !count < l in
  List.iter
    (fun e1 ->
      List.iter
        (fun e2 ->
          if
            budget ()
            && Scheme.Set.disjoint e1 e2
            && Scheme.compare (Scheme.Set.min_elt e1) (Scheme.Set.min_elt e2) < 0
            && linked e1 e2
          then begin
            let tau_join = oracle (Scheme.Set.union e1 e2) in
            let tau_1 = oracle e1 and tau_2 = oracle e2 in
            if tau_join < tau_1 || tau_join < tau_2 then begin
              acc := { j1 = e1; j2 = e2; tau_join; tau_1; tau_2 } :: !acc;
              incr count
            end
          end)
        connected_subsets)
    connected_subsets;
  List.rev !acc

let holds_c4 db = violations_c4 ~limit:1 db = []

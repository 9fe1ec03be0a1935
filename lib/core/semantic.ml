open Mj_relation
open Mj_hypergraph

let all_joins_on_superkeys fds d =
  List.for_all
    (fun (s1, s2) ->
      let common = Attr.Set.inter s1 s2 in
      Fd.is_superkey fds s1 common && Fd.is_superkey fds s2 common)
    (Querygraph.edges d)

let no_nontrivial_lossy_joins fds d =
  List.for_all
    (fun e ->
      Scheme.Set.cardinal e < 2
      ||
      let universe = Scheme.Set.universe e in
      let local_fds = Fd.project fds universe in
      Chase.is_lossless local_fds (Scheme.Set.elements e))
    (Hypergraph.connected_subsets d)

let gamma_acyclic_consistent db =
  Acyclicity.is_gamma_acyclic (Database.schemes db)
  && Consistency.pairwise_consistent db

let key_join_graph fds d =
  List.map
    (fun (s1, s2) ->
      let common = Attr.Set.inter s1 s2 in
      let left = Fd.is_superkey fds s1 common in
      let right = Fd.is_superkey fds s2 common in
      let side =
        match left, right with
        | true, true -> `Both
        | true, false -> `Left
        | false, true -> `Right
        | false, false -> `Neither
      in
      (s1, s2, side))
    (Querygraph.edges d)

open Mj_relation
open Mj_hypergraph

(* [inside.(m)] counts a tree's edges inside [m] (the lowest member's
   into the rest); [linked.adj] is the union of all tree edges. *)
let violations_c4 ?(limit = max_int) db =
  let d = Database.schemes db in
  if not (Gyo.is_alpha_acyclic d) then
    invalid_arg "Conditions_jt: database scheme is not alpha-acyclic";
  if Scheme.Set.cardinal d > 8 then
    invalid_arg "Conditions_jt: more than 8 relations";
  let cache = Cost.Cache.create db in
  let u = Cost.Cache.universe cache in
  let full = Bitdb.full u in
  let connected = Array.make (full + 1) false in
  let linked = { u with Bitdb.adj = Array.make u.Bitdb.n 0 } in
  List.iter
    (fun tree ->
      let adj = Array.make u.Bitdb.n 0 and inside = Array.make (full + 1) 0 in
      List.iter
        (fun (s, t) ->
          let i = Bitdb.index u s and j = Bitdb.index u t in
          adj.(i) <- adj.(i) lor (1 lsl j);
          adj.(j) <- adj.(j) lor (1 lsl i))
        tree;
      Array.iteri (fun i a -> linked.adj.(i) <- linked.adj.(i) lor a) adj;
      for m = 1 to full do
        let rest = m land (m - 1) in
        let low = Bitdb.bit_index (Bitdb.lowest_bit m) in
        inside.(m) <- inside.(rest) + Bitdb.popcount (adj.(low) land rest);
        if inside.(m) = Bitdb.popcount rest then connected.(m) <- true
      done)
    (Jointree.all_join_trees d);
  let masks = List.filter (Array.get connected) (List.init full succ) in
  let card = Cost.Cache.card_mask cache and set = Bitdb.set_of_mask u in
  let acc = ref [] and count = ref 0 in
  List.iter
    (fun m1 ->
      let reach = Bitdb.neighborhood linked m1 in
      List.iter
        (fun m2 ->
          if
            !count < limit && m1 land m2 = 0
            && Bitdb.lowest_bit m1 < Bitdb.lowest_bit m2
            && reach land m2 <> 0
          then begin
            let tau_join = card (m1 lor m2) and tau_1 = card m1 and tau_2 = card m2 in
            if tau_join < tau_1 || tau_join < tau_2 then begin
              let w = { Conditions.p1 = set m1; p2 = set m2; tau_join; tau_1; tau_2 } in
              acc := w :: !acc;
              incr count
            end
          end)
        masks)
    masks;
  List.rev !acc

let holds_c4 db = violations_c4 ~limit:1 db = []

open Mj_hypergraph
open Multijoin

(* Moerkotte–Neumann enumeration.  B_i is the mask of nodes with index
   <= i; subsets are emitted so that each csg and each csg-cmp pair
   appears exactly once.  The connected subgraphs are [Bitdb]'s
   EnumerateCsg over the whole universe; each one's complements grow
   by the same recursion. *)

let enumerate_cmp g s1 emit =
  let min_s1 = s1 land -s1 in
  let b_min = (min_s1 lsl 1) - 1 in
  let x = b_min lor s1 in
  let n = Bitdb.neighborhood g s1 land lnot x in
  for i = Bitdb.size g - 1 downto 0 do
    let v = 1 lsl i in
    if n land v <> 0 then begin
      emit v;
      let b_i = (1 lsl (i + 1)) - 1 in
      Bitdb.csg_rec g (Bitdb.full g) v (x lor (b_i land n)) emit
    end
  done

let pairs_of g =
  let pairs = ref [] in
  Bitdb.iter_connected_subsets g (Bitdb.full g) (fun s1 ->
      enumerate_cmp g s1 (fun s2 -> pairs := (s1, s2) :: !pairs));
  List.rev !pairs

let csg_cmp_pairs d = pairs_of (Bitdb.make d)
let count_csg_cmp_pairs d = List.length (csg_cmp_pairs d)

(* Split order: the csg-cmp pairs, stably sorted by the size of their
   union so both parts are final before the union is offered. *)
let plan ?obs ~oracle d =
  fst
  @@ Subset_dp.drive ?obs ~span:"dpccp" ~oracle d
  @@ fun u dp ->
  List.stable_sort
    (fun (a1, a2) (b1, b2) ->
      Int.compare (Bitdb.popcount (a1 lor a2)) (Bitdb.popcount (b1 lor b2)))
    (pairs_of u)
  |> List.iter (fun (m1, m2) -> Subset_dp.offer dp ~usable:true m1 m2)

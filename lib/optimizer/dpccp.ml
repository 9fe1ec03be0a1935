open Mj_hypergraph
open Multijoin

(* Moerkotte–Neumann enumeration.  B_i is the mask of nodes with index
   <= i; subsets are emitted so that each csg and each csg-cmp pair
   appears exactly once. *)

let subsets_of mask f =
  (* All non-empty submasks of [mask] (including [mask] itself). *)
  if mask <> 0 then begin
    f mask;
    Bitdb.iter_subsets mask f
  end

let rec enumerate_csg_rec g s x emit =
  let n = Bitdb.neighborhood g s land lnot x in
  subsets_of n (fun s' -> emit (s lor s'));
  subsets_of n (fun s' -> enumerate_csg_rec g (s lor s') (x lor n) emit)

let enumerate_csg g emit =
  for i = Bitdb.size g - 1 downto 0 do
    let v = 1 lsl i in
    emit v;
    let b_i = (1 lsl (i + 1)) - 1 in
    enumerate_csg_rec g v b_i emit
  done

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
      enumerate_csg_rec g v (x lor (b_i land n)) emit
    end
  done

let pairs_of g =
  let pairs = ref [] in
  enumerate_csg g (fun s1 ->
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

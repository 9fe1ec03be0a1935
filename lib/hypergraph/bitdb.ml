open Mj_relation

type t = {
  nodes : Scheme.t array;
  n : int;
  adj : int array;
  full : int;
}

let make d =
  let nodes = Array.of_list (Scheme.Set.elements d) in
  let n = Array.length nodes in
  if n > 62 then invalid_arg "Bitdb.make: more than 62 relations";
  let adj = Array.make n 0 in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      if i <> j && not (Attr.Set.disjoint nodes.(i) nodes.(j)) then
        adj.(i) <- adj.(i) lor (1 lsl j)
    done
  done;
  { nodes; n; adj; full = (1 lsl n) - 1 }

let full u = u.full
let size u = u.n
let scheme u i = u.nodes.(i)

(* The nodes array is sorted by [Scheme.compare], so scheme lookup is a
   binary search; no side table to keep in sync. *)
let index u s =
  let rec search lo hi =
    if lo >= hi then raise Not_found
    else
      let mid = (lo + hi) / 2 in
      let c = Scheme.compare s u.nodes.(mid) in
      if c = 0 then mid else if c < 0 then search lo mid else search (mid + 1) hi
  in
  search 0 u.n

let bit u s = 1 lsl index u s

let mask_of_set u d =
  Scheme.Set.fold (fun s acc -> acc lor bit u s) d 0

let popcount mask =
  let rec go m acc = if m = 0 then acc else go (m land (m - 1)) (acc + 1) in
  go mask 0

let lowest_bit mask = mask land -mask

let bit_index b =
  let rec go i m = if m <= 1 then i else go (i + 1) (m lsr 1) in
  go 0 b

let set_of_mask u mask =
  let acc = ref Scheme.Set.empty in
  let rec go m =
    if m <> 0 then begin
      let b = m land -m in
      acc := Scheme.Set.add u.nodes.(bit_index b) !acc;
      go (m lxor b)
    end
  in
  go mask;
  !acc

let neighborhood u mask =
  let acc = ref 0 in
  let rec go m =
    if m <> 0 then begin
      let b = m land -m in
      acc := !acc lor u.adj.(bit_index b);
      go (m lxor b)
    end
  in
  go mask;
  !acc land lnot mask

let linked u m1 m2 = m1 land m2 <> 0 || neighborhood u m1 land m2 <> 0

let is_connected u mask =
  if mask = 0 then true
  else begin
    let rec grow seen =
      let next = seen lor (neighborhood u seen land mask) in
      if next = seen then seen else grow next
    in
    grow (lowest_bit mask) = mask
  end

let component_of u mask seed =
  let rec grow seen =
    let next = seen lor (neighborhood u seen land mask) in
    if next = seen then seen else grow next
  in
  grow seed

let components u mask =
  (* Peeling from the lowest set bit yields components in increasing
     order of their minimum scheme (nodes are sorted). *)
  let rec peel m acc =
    if m = 0 then List.rev acc
    else
      let c = component_of u m (lowest_bit m) in
      peel (m land lnot c) (c :: acc)
  in
  peel mask []

let iter_subsets mask f =
  (* Non-empty proper submasks, decreasing (the (s-1) land mask walk). *)
  let s = ref ((mask - 1) land mask) in
  while !s <> 0 do
    f !s;
    s := (!s - 1) land mask
  done

let iter_submasks_ascending mask f =
  (* Every submask of [mask] including 0 and [mask] itself, in
     increasing numeric order: s' = (s - mask) land mask. *)
  let continue = ref true in
  let s = ref 0 in
  while !continue do
    f !s;
    if !s = mask then continue := false else s := (!s - mask) land mask
  done

(* DPccp-style connected-subset enumeration (Moerkotte & Neumann's
   EnumerateCsg restricted to the sub-hypergraph induced by [within]):
   every connected subset is emitted exactly once, by neighborhood
   expansion — no enumerate-then-filter. *)
let rec csg_rec u within s x emit =
  let nb = neighborhood u s land within land lnot x in
  if nb <> 0 then begin
    (* all non-empty submasks of nb *)
    let rec each sub =
      if sub <> 0 then begin
        emit (s lor sub);
        each ((sub - 1) land nb)
      end
    in
    each nb;
    let rec each_rec sub =
      if sub <> 0 then begin
        csg_rec u within (s lor sub) (x lor nb) emit;
        each_rec ((sub - 1) land nb)
      end
    in
    each_rec nb
  end

let iter_connected_subsets u within emit =
  let rec go i =
    if i >= 0 then begin
      let v = 1 lsl i in
      if within land v <> 0 then begin
        emit v;
        let b_i = (v lsl 1) - 1 in
        csg_rec u within v (b_i land within) emit
      end;
      go (i - 1)
    end
  in
  go (u.n - 1)

let connected_subsets u within =
  let acc = ref [] in
  iter_connected_subsets u within (fun m -> acc := m :: !acc);
  List.sort Int.compare !acc

let iter_binary_partitions u mask f =
  ignore u;
  (* Anchored on the lowest bit (the minimum scheme): the anchor always
     sits in the left half, so each unordered partition appears exactly
     once.  Pairs are produced in increasing order of the left half's
     rest-submask. *)
  if popcount mask >= 2 then begin
    let anchor = lowest_bit mask in
    let rest = mask lxor anchor in
    iter_submasks_ascending rest (fun sub ->
        if sub <> rest then f (anchor lor sub) (rest lxor sub))
  end

let binary_partitions u mask =
  let acc = ref [] in
  iter_binary_partitions u mask (fun l r -> acc := (l, r) :: !acc);
  List.rev !acc

type fd = {
  lhs : Attr.Set.t;
  rhs : Attr.Set.t;
}

type t = fd list

let fd lhs rhs =
  if Attr.Set.is_empty lhs then invalid_arg "Fd.fd: empty left-hand side";
  { lhs; rhs }

let of_strings pairs =
  List.map
    (fun (l, r) -> fd (Attr.Set.of_string l) (Attr.Set.of_string r))
    pairs

let pp_fd fmt d =
  Format.fprintf fmt "%a->%a" Attr.Set.pp d.lhs Attr.Set.pp d.rhs

let pp fmt fds =
  Format.fprintf fmt "{%a}"
    (Format.pp_print_list
       ~pp_sep:(fun fmt () -> Format.pp_print_string fmt "; ")
       pp_fd)
    fds

let closure fds x =
  let rec fixpoint acc =
    let acc' =
      List.fold_left
        (fun acc d ->
          if Attr.Set.subset d.lhs acc then Attr.Set.union d.rhs acc else acc)
        acc fds
    in
    if Attr.Set.equal acc acc' then acc else fixpoint acc'
  in
  fixpoint x

let implies fds d = Attr.Set.subset d.rhs (closure fds d.lhs)

let is_superkey fds scheme x =
  Attr.Set.subset x scheme && Attr.Set.subset scheme (closure fds x)

let is_key fds scheme x =
  is_superkey fds scheme x
  && Attr.Set.for_all
       (fun a -> not (is_superkey fds scheme (Attr.Set.remove a x)))
       x

(* Shrink a superkey to a minimal one by greedy attribute removal, then use
   it to seed a breadth-first exploration that finds every candidate key. *)
let minimize_superkey fds scheme x =
  Attr.Set.fold
    (fun a acc ->
      let without = Attr.Set.remove a acc in
      if is_superkey fds scheme without then without else acc)
    x x

let candidate_keys fds scheme =
  let first = minimize_superkey fds scheme scheme in
  (* Lucchesi–Osborn style search: a new key is found by taking a known key
     K and a dependency X → Y, forming X ∪ (K − Y), and minimizing. *)
  let relevant =
    List.filter (fun d -> Attr.Set.subset d.lhs scheme) fds
  in
  let rec explore found queue =
    match queue with
    | [] -> found
    | k :: rest ->
        let new_keys =
          List.filter_map
            (fun d ->
              let candidate =
                Attr.Set.union
                  (Attr.Set.inter d.lhs scheme)
                  (Attr.Set.diff k d.rhs)
              in
              if not (is_superkey fds scheme candidate) then None
              else
                let k' = minimize_superkey fds scheme candidate in
                if List.exists (Attr.Set.equal k') found then None else Some k')
            relevant
        in
        let new_keys = List.sort_uniq Attr.Set.compare new_keys in
        explore (found @ new_keys) (rest @ new_keys)
  in
  List.sort Attr.Set.compare (explore [ first ] [ first ])

(* Enumerate the non-empty subsets of a small attribute set. *)
let nonempty_subsets scheme =
  let attrs = Attr.Set.elements scheme in
  let n = List.length attrs in
  if n > 20 then invalid_arg "Fd: scheme too wide for subset enumeration";
  let rec build = function
    | [] -> [ Attr.Set.empty ]
    | a :: rest ->
        let subs = build rest in
        subs @ List.map (Attr.Set.add a) subs
  in
  List.filter (fun s -> not (Attr.Set.is_empty s)) (build attrs)

let project fds scheme =
  let subs = nonempty_subsets scheme in
  let projected =
    List.filter_map
      (fun x ->
        let image = Attr.Set.inter (closure fds x) scheme in
        let proper = Attr.Set.diff image x in
        if Attr.Set.is_empty proper then None else Some { lhs = x; rhs = proper })
      subs
  in
  projected

let split_rhs fds =
  List.concat_map
    (fun d ->
      List.map
        (fun a -> { lhs = d.lhs; rhs = Attr.Set.singleton a })
        (Attr.Set.elements d.rhs))
    fds

let remove_extraneous_lhs fds d =
  Attr.Set.fold
    (fun a acc ->
      let smaller = Attr.Set.remove a acc.lhs in
      if
        (not (Attr.Set.is_empty smaller))
        && Attr.Set.subset acc.rhs (closure fds smaller)
      then { acc with lhs = smaller }
      else acc)
    d.lhs d

let minimal_cover fds =
  let split = split_rhs fds in
  let reduced = List.map (remove_extraneous_lhs split) split in
  let reduced = List.sort_uniq compare reduced in
  (* Drop dependencies implied by the others. *)
  let rec prune kept = function
    | [] -> List.rev kept
    | d :: rest ->
        let others = List.rev_append kept rest in
        if implies others d then prune kept rest else prune (d :: kept) rest
  in
  prune [] reduced

let equivalent f g =
  List.for_all (implies f) g && List.for_all (implies g) f

let holds_in r d =
  let scheme = Relation.scheme r in
  if not (Attr.Set.subset (Attr.Set.union d.lhs d.rhs) scheme) then
    invalid_arg "Fd.holds_in: dependency mentions attributes outside scheme";
  (* Group tuples by their lhs projection; the rhs projection must be
     constant in each group. *)
  let table = Hashtbl.create 64 in
  let ok = ref true in
  Relation.iter
    (fun tu ->
      let key = Tuple.bindings (Tuple.restrict tu d.lhs) in
      let image = Tuple.bindings (Tuple.restrict tu d.rhs) in
      match Hashtbl.find_opt table key with
      | None -> Hashtbl.add table key image
      | Some image' -> if image <> image' then ok := false)
    r;
  !ok


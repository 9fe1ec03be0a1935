(* A scheme set plus two forms of the state, each built on first demand
   from the other: per-scheme seed relations and one coded form, the
   frames every execution reads.  At least one form is always complete:
   a database built from relations has every seed slot filled, and one
   whose coded form is absent was built from relations (or derived from
   one by [replace] or [map_states], which fill every slot).  Both are
   published through [Atomic.compare_and_set], so a form forced from
   several domains at once is built by each racer and exactly one copy
   wins. *)
type t = {
  seeds : Relation.t option Atomic.t Scheme.Map.t;
  coded : Coded.t option Atomic.t;
  forced : int Atomic.t; (* seed states decoded from the coded form *)
}

let of_seeds seeds ~forced = { seeds; coded = Atomic.make None; forced }

let of_relations rs =
  if rs = [] then invalid_arg "Database.of_relations: empty database";
  of_seeds ~forced:(Atomic.make 0)
    (List.fold_left
       (fun acc r ->
         let s = Relation.scheme r in
         if Scheme.Map.mem s acc then
           invalid_arg
             (Printf.sprintf "Database.of_relations: duplicate scheme %s"
                (Scheme.to_string s))
         else Scheme.Map.add s (Atomic.make (Some r)) acc)
       Scheme.Map.empty rs)

let of_coded (c : Coded.t) =
  if Scheme.Map.is_empty c.frames then
    invalid_arg "Database.of_coded: empty database";
  {
    seeds = Scheme.Map.map (fun _ -> Atomic.make None) c.frames;
    coded = Atomic.make (Some c);
    forced = Atomic.make 0;
  }

let of_rows specs =
  of_relations (List.map (fun (sh, rows) -> Relation.of_rows sh rows) specs)

let schemes db =
  Scheme.Map.fold (fun s _ acc -> Scheme.Set.add s acc) db.seeds Scheme.Set.empty

let scheme_list db = List.map fst (Scheme.Map.bindings db.seeds)

(* The first value published in [slot]: ours, or a racer's. *)
let publish slot v =
  if Atomic.compare_and_set slot None (Some v) then (true, v)
  else (false, Option.get (Atomic.get slot))

let find db s =
  let slot = Scheme.Map.find s db.seeds in
  match Atomic.get slot with
  | Some r -> r
  | None ->
      (* An empty slot means the coded form is present. *)
      let c = Option.get (Atomic.get db.coded) in
      let won, r = publish slot (Coded.to_relation (Scheme.Map.find s c.frames)) in
      if won then Atomic.incr db.forced;
      r

let relations db = List.map (find db) (scheme_list db)

let coded db =
  match Atomic.get db.coded with
  | Some c -> c
  | None ->
      (* An absent coded form means every seed slot is filled, so this
         forces nothing. *)
      snd (publish db.coded (Coded.of_relations (relations db)))

let mem db s = Scheme.Map.mem s db.seeds
let size db = Scheme.Map.cardinal db.seeds
let seed_forced db = Atomic.get db.forced

let cardinality db s =
  match Atomic.get (Scheme.Map.find s db.seeds) with
  | Some r -> Relation.cardinality r
  | None -> (Scheme.Map.find s (Option.get (Atomic.get db.coded)).frames).rows

let universe db =
  Scheme.Map.fold (fun s _ acc -> Attr.Set.union s acc) db.seeds Attr.Set.empty

(* A view: the kept slots are shared, so a state forced through the
   sub-database is forced for its parent too. *)
let restrict db d' =
  if Scheme.Set.is_empty d' then
    invalid_arg "Database.restrict: empty sub-scheme";
  let seeds =
    Scheme.Set.fold
      (fun s acc ->
        match Scheme.Map.find_opt s db.seeds with
        | Some slot -> Scheme.Map.add s slot acc
        | None ->
            invalid_arg
              (Printf.sprintf "Database.restrict: scheme %s not in database"
                 (Scheme.to_string s)))
      d' Scheme.Map.empty
  in
  let coded = Option.map (fun c -> Coded.restrict c d') (Atomic.get db.coded) in
  { seeds; coded = Atomic.make coded; forced = db.forced }

let replace db r =
  let s = Relation.scheme r in
  if not (mem db s) then raise Not_found;
  of_seeds ~forced:db.forced
    (Scheme.Map.mapi
       (fun s' slot ->
         if Scheme.equal s s' then Atomic.make (Some r)
         else (
           ignore (find db s');
           slot))
       db.seeds)

let join_all db =
  match relations db with
  | [] -> assert false
  | r :: rest -> List.fold_left Relation.natural_join r rest

let total_tuples db =
  Scheme.Map.fold (fun s _ acc -> acc + cardinality db s) db.seeds 0

let map_states f db =
  of_seeds ~forced:db.forced
    (Scheme.Map.mapi
       (fun s _ ->
         let r' = f (find db s) in
         if not (Scheme.equal (Relation.scheme r') s) then
           invalid_arg "Database.map_states: transformation changed a scheme";
         Atomic.make (Some r'))
       db.seeds)

let equal db1 db2 =
  Scheme.Map.equal (fun _ _ -> true) db1.seeds db2.seeds
  && List.for_all
       (fun s -> Relation.equal (find db1 s) (find db2 s))
       (scheme_list db1)

let pp fmt db =
  Format.pp_open_vbox fmt 0;
  List.iteri
    (fun i s ->
      if i > 0 then Format.pp_print_cut fmt ();
      Format.fprintf fmt "%s:@,%a" (Scheme.to_string s) Relation.pp (find db s))
    (scheme_list db);
  Format.pp_close_box fmt ()

let pp_brief fmt db =
  let parts =
    List.map
      (fun s -> Format.asprintf "%a(%d)" Attr.Set.pp s (cardinality db s))
      (scheme_list db)
  in
  Format.fprintf fmt "{%s}" (String.concat ", " parts)

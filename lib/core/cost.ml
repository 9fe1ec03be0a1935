open Mj_relation
open Mj_hypergraph

let base db scheme =
  match Database.find db scheme with
  | r -> r
  | exception Not_found ->
      invalid_arg
        (Printf.sprintf "Cost: scheme %s not in the database"
           (Scheme.to_string scheme))

let rec eval db = function
  | Strategy.Leaf s -> base db s
  | Strategy.Join n -> Relation.natural_join (eval db n.left) (eval db n.right)

(* Evaluate bottom-up, accumulating the cost of every step. *)
let rec eval_with_cost db = function
  | Strategy.Leaf s -> (base db s, 0, [])
  | Strategy.Join n ->
      let r1, c1, rows1 = eval_with_cost db n.left in
      let r2, c2, rows2 = eval_with_cost db n.right in
      let r = Relation.natural_join r1 r2 in
      let here = Relation.cardinality r in
      (r, c1 + c2 + here, rows1 @ rows2 @ [ (n.schemes, here) ])

let tau db s =
  let _, cost, _ = eval_with_cost db s in
  cost

let step_costs db s =
  let _, _, rows = eval_with_cost db s in
  rows

let rec tau_oracle card = function
  | Strategy.Leaf _ -> 0
  | Strategy.Join n ->
      tau_oracle card n.left + tau_oracle card n.right + card n.schemes

module Cache = struct
  module Obs = Mj_obs.Obs

  type backend = Seed | Frame

  type t = {
    db : Database.t;
    univ : Bitdb.t;
    table : (int, int) Hashtbl.t;
    agm_table : (int, float option) Hashtbl.t;
    backend : backend;
    mutable counter : Frame.Db.counter option; (* built on first miss *)
    hits : Obs.counter;
    misses : Obs.counter;
    bypasses : Obs.counter;
  }

  let create ?(obs = Obs.noop) ?(backend = Frame) db =
    {
      db;
      univ = Bitdb.make (Database.schemes db);
      table = Hashtbl.create 256;
      agm_table = Hashtbl.create 64;
      backend;
      counter = None;
      hits = Obs.counter obs "cost.cache_hits";
      misses = Obs.counter obs "cost.cache_misses";
      bypasses = Obs.counter obs "cost.cache_bypass";
    }

  let database c = c.db
  let universe c = c.univ

  let counter c =
    match c.counter with
    | Some k -> k
    | None ->
        let k = Frame.Db.counter (Frame.Db.of_database c.db) in
        c.counter <- Some k;
        k

  (* A connected sub-database is counted by the backend.  The frame
     counter indexes schemes in [Scheme.compare] order, as [Bitdb]
     does, so the mask passes through unchanged. *)
  let count c mask =
    match c.backend with
    | Seed ->
        Relation.cardinality
          (Database.join_all
             (Database.restrict c.db (Bitdb.set_of_mask c.univ mask)))
    | Frame -> Frame.Db.count (counter c) mask

  (* Storage is guarded: a cardinality is never negative, so a negative
     entry can only be corruption.  The [Cache_poison] failpoint
     exploits exactly that — it corrupts the *stored* copy of every
     newly computed value to [-(n + 1)] — and the read path detects the
     bad entry and bypasses it (recompute, repair, count a bypass)
     rather than ever returning it.  The computed value handed to the
     caller is always the clean one. *)
  let store c mask n =
    let poisoned =
      if Mj_failpoint.Failpoint.fire Cache_poison then -(n + 1) else n
    in
    Hashtbl.replace c.table mask poisoned

  let rec card_mask c mask =
    match Hashtbl.find_opt c.table mask with
    | Some n when n >= 0 ->
        Obs.incr c.hits 1;
        n
    | Some _ ->
        (* Corrupt entry: bypass the cache, repair the slot. *)
        Obs.incr c.bypasses 1;
        let n = compute c mask in
        store c mask n;
        n
    | None ->
        Obs.incr c.misses 1;
        let n = compute c mask in
        store c mask n;
        n

  (* The components of an unconnected mask share no attribute, so their
     join is their Cartesian product: its size is the product of theirs,
     each read through the cache, stopping at the first empty one. *)
  and compute c mask =
    match Bitdb.components c.univ mask with
    | _ :: _ :: _ as comps ->
        let n = product c comps in
        if Mj_failpoint.Failpoint.fire Cost_cp_product then n + 1 else n
    | _ -> count c mask

  and product c = function
    | [] -> 1
    | m :: rest -> (
        match card_mask c m with
        | 0 -> 0
        | n -> Frame.Db.saturating_mul n (product c rest))

  let card c schemes =
    match Bitdb.mask_of_set c.univ schemes with
    | mask -> card_mask c mask
    | exception Not_found ->
        invalid_arg "Cost.Cache: scheme not in the database"
  let hits c = Obs.value c.hits
  let misses c = Obs.value c.misses
  let bypasses c = Obs.value c.bypasses
  let entries c = Hashtbl.length c.table

  (* The AGM fractional-cover output bound of a sub-database, over
     {e base} cardinalities only — pricing never joins anything, so the
     bound is as cheap as the cover LP (3^k half-integral vertices,
     k ≤ Cover.max_lp_relations) and is memoized per mask like the
     τ oracle above.  [None] for sub-databases the LP does not price
     (empty or more than 8 relations). *)
  let agm_mask c mask =
    match Hashtbl.find_opt c.agm_table mask with
    | Some b -> b
    | None ->
        let card i =
          Relation.cardinality (base c.db (Bitdb.scheme c.univ i))
        in
        let b = Cover.agm_bound c.univ mask ~card in
        Hashtbl.add c.agm_table mask b;
        b

  let agm c schemes =
    match Bitdb.mask_of_set c.univ schemes with
    | mask -> agm_mask c mask
    | exception Not_found ->
        invalid_arg "Cost.Cache: scheme not in the database"
end

let cardinality_oracle db = Cache.card (Cache.create db)

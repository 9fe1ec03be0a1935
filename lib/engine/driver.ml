open Mj_relation
module Obs = Mj_obs.Obs
module Json = Mj_obs.Json

module type PLANE = sig
  val name : string
  val root_span : string

  type item
  type ctx

  val scan : ctx -> Scheme.t -> item

  val join : ctx -> common:Attr.Set.t -> item -> item -> item

  val generic_join :
    ctx -> schemes:Scheme.t list -> order:Attr.t list -> item

  val semijoin : ctx -> common:Attr.Set.t -> item -> item -> item

  val ranked :
    ctx -> order:Attr.t list -> k:int -> (Scheme.t * item) list -> item

  val cardinality : item -> int
  val note_step : ctx -> int -> unit
  val join_label : string
  val to_relation : ctx -> Scheme.t -> item -> Relation.t
  val digest : ctx -> Scheme.t -> item -> int64
end

type step_log = {
  tuples_generated : int;
  per_step : (Scheme.Set.t * int) list;
}

let scheme_key d = Format.asprintf "%a" Scheme.Set.pp d

(* The attributes every "join" span opens with.  Defined outside the
   functor, it needs no capture in the walker's closures. *)
let join_attrs ~obs label node_schemes =
  if Obs.enabled obs then begin
    Obs.set_attr obs "algo" (Json.str label);
    Obs.set_attr obs "scheme" (Json.str (scheme_key node_schemes))
  end

module Make (P : PLANE) = struct
  (* The τ log of one walk. *)
  type log = {
    mutable generated : int;
    mutable steps : (Scheme.Set.t * int) list;
  }

  (* Every τ-producing step ends here: its output cardinality joins
     the τ sum and the per-step log, and becomes the span's [rows]. *)
  let record ~obs ctx log node_schemes it =
    let n = P.cardinality it in
    log.generated <- log.generated + n;
    log.steps <- (node_schemes, n) :: log.steps;
    P.note_step ctx n;
    if Obs.enabled obs then Obs.set_attr obs "rows" (Json.int n);
    it

  let scan ~obs ctx s =
    Obs.span obs "scan" (fun () ->
        let it = P.scan ctx s in
        if Obs.enabled obs then begin
          Obs.set_attr obs "scheme"
            (Json.str (scheme_key (Scheme.Set.singleton s)));
          Obs.set_attr obs "rows" (Json.int (P.cardinality it))
        end;
        it)

  (* One walker for both planes: the span shapes (a "scan" per leaf, a
     "join" per step, attributes [scheme], [rows] and [algo]) and the
     per-step τ accounting. *)
  let walk ~obs ctx plan =
    let log = { generated = 0; steps = [] } in
    let rec run = function
      | Physical.Scan s -> (s, scan ~obs ctx s)
      | Physical.Join (l, r) ->
          Obs.span obs "join" (fun () ->
              let node_schemes =
                Scheme.Set.union (Physical.schemes l) (Physical.schemes r)
              in
              join_attrs ~obs P.join_label node_schemes;
              let ls, left = run l in
              let rs, right = run r in
              let it = P.join ctx ~common:(Attr.Set.inter ls rs) left right in
              (Attr.Set.union ls rs, record ~obs ctx log node_schemes it))
      | Physical.Generic_join (ss, order) ->
          (* One n-ary step: the whole sub-hypergraph is joined in a
             single worst-case-optimal pass, so the node contributes
             exactly one τ entry — its output cardinality — where a
             binary lowering would contribute one per internal step. *)
          Obs.span obs "join" (fun () ->
              let node_schemes = Scheme.Set.of_list ss in
              join_attrs ~obs "wcoj" node_schemes;
              if Obs.enabled obs then
                Obs.set_attr obs "order"
                  (Json.str
                     (String.concat "," (List.map Attr.to_string order)));
              let it = P.generic_join ctx ~schemes:ss ~order in
              ( List.fold_left Attr.Set.union Attr.Set.empty ss,
                record ~obs ctx log node_schemes it ))
      | Physical.Semijoin_program rt -> yannakakis rt None
      | Physical.Ranked_enumerate (rt, k) -> yannakakis rt (Some k)
    (* Yannakakis over a rooted join tree: scan every node, sweep
       semijoins leaf-to-root then root-to-leaf (each a "semijoin" span
       with [scheme]/[rows]/[dir] attributes but NO τ entry — semijoins
       generate no tuples under the paper's measure), then either join
       the reduced relations root-outward (one "join" span and one τ
       entry per step, like any binary plan) or hand the whole reduced
       tree to the plane's ranked enumerator (one "topk" span, one τ
       entry: the ≤ k rows it streamed out). *)
    and yannakakis (rt : Mj_hypergraph.Jointree.rooted) limit =
      let order = Mj_hypergraph.Jointree.join_order rt in
      let items = List.map (fun s -> (s, ref (scan ~obs ctx s))) order in
      let item_of s = snd (List.find (fun (s', _) -> Scheme.equal s s') items) in
      let semijoin_step dir target source =
        let t = item_of target and sc = item_of source in
        Obs.span obs "semijoin" (fun () ->
            let common = Attr.Set.inter target source in
            t := P.semijoin ctx ~common !t !sc;
            if Obs.enabled obs then begin
              Obs.set_attr obs "scheme"
                (Json.str (scheme_key (Scheme.Set.singleton target)));
              Obs.set_attr obs "dir" (Json.str dir);
              Obs.set_attr obs "rows" (Json.int (P.cardinality !t))
            end)
      in
      List.iter
        (fun (ear, parent) -> semijoin_step "up" parent ear)
        rt.Mj_hypergraph.Jointree.elims;
      List.iter
        (fun (ear, parent) -> semijoin_step "down" ear parent)
        (List.rev rt.Mj_hypergraph.Jointree.elims);
      let out_scheme = List.fold_left Attr.Set.union Attr.Set.empty order in
      match limit with
      | None ->
          let join_step (acc_set, acc_scheme, acc) s =
            Obs.span obs "join" (fun () ->
                let node_schemes = Scheme.Set.add s acc_set in
                join_attrs ~obs P.join_label node_schemes;
                let common = Attr.Set.inter acc_scheme s in
                let it = P.join ctx ~common acc !(item_of s) in
                ( node_schemes,
                  Attr.Set.union acc_scheme s,
                  record ~obs ctx log node_schemes it ))
          in
          let root = rt.Mj_hypergraph.Jointree.root in
          let _, _, it =
            List.fold_left join_step
              (Scheme.Set.singleton root, root, !(item_of root))
              (List.tl order)
          in
          (out_scheme, it)
      | Some k ->
          Obs.span obs "topk" (fun () ->
              let node_schemes = Scheme.Set.of_list order in
              if Obs.enabled obs then begin
                Obs.set_attr obs "scheme" (Json.str (scheme_key node_schemes));
                Obs.set_attr obs "k" (Json.int k)
              end;
              let it =
                P.ranked ctx
                  ~order:(Attr.Set.elements out_scheme)
                  ~k
                  (List.map (fun (s, r) -> (s, !r)) items)
              in
              (out_scheme, record ~obs ctx log node_schemes it))
    in
    let root = Obs.span obs P.root_span (fun () -> run plan) in
    (root, { tuples_generated = log.generated; per_step = List.rev log.steps })

  let certify ~obs ctx (scheme, item) =
    Obs.span obs "serve.certify" (fun () -> P.digest ctx scheme item)
end

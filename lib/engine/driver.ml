open Mj_relation
module Obs = Mj_obs.Obs
module Json = Mj_obs.Json

module type PLANE = sig
  val name : string
  val root_span : string

  type item
  type ctx

  val scan : ctx -> Scheme.t -> item

  val join :
    ctx -> Physical.algorithm -> common:Attr.Set.t -> item -> item -> item

  val index_join :
    ctx -> common:Attr.Set.t -> outer:item -> inner:Scheme.t -> item option

  val generic_join :
    ctx -> schemes:Scheme.t list -> order:Attr.t list -> item

  val semijoin : ctx -> common:Attr.Set.t -> item -> item -> item

  val ranked :
    ctx -> order:Attr.t list -> k:int -> (Scheme.t * item) list -> item

  val cardinality : item -> int
  val note_step : ctx -> int -> unit
  val algo_label : Physical.algorithm -> string
  val to_relation : ctx -> Scheme.t -> item -> Relation.t
  val digest : ctx -> Scheme.t -> item -> int64
end

type step_log = {
  tuples_generated : int;
  per_step : (Scheme.Set.t * int) list;
}

let scheme_key d = Format.asprintf "%a" Scheme.Set.pp d

module Make (P : PLANE) = struct
  (* The walker is the part both planes used to duplicate: the span
     shapes (a "scan" per leaf, a "join" per step, attributes [scheme],
     [rows] and [algo]), the per-step τ accounting, and the
     index-nested-loop fast path that reaches the inner base relation
     through its index instead of executing the scan.  A plane that has
     no base-relation indexes answers [None] from [index_join] and the
     step degrades to its ordinary join. *)
  let walk ~obs ctx plan =
    let generated = ref 0 in
    let steps = ref [] in
    let rec run = function
      | Physical.Scan s ->
          Obs.span obs "scan" (fun () ->
              let it = P.scan ctx s in
              if Obs.enabled obs then begin
                Obs.set_attr obs "scheme"
                  (Json.str (scheme_key (Scheme.Set.singleton s)));
                Obs.set_attr obs "rows" (Json.int (P.cardinality it))
              end;
              (s, it))
      | Physical.Join (algo, l, r) ->
          Obs.span obs "join" (fun () ->
              let node_schemes =
                Scheme.Set.union (Physical.schemes l) (Physical.schemes r)
              in
              if Obs.enabled obs then begin
                Obs.set_attr obs "algo" (Json.str (P.algo_label algo));
                Obs.set_attr obs "scheme" (Json.str (scheme_key node_schemes))
              end;
              let finish out_scheme it =
                let n = P.cardinality it in
                generated := !generated + n;
                steps := (node_schemes, n) :: !steps;
                P.note_step ctx n;
                if Obs.enabled obs then Obs.set_attr obs "rows" (Json.int n);
                (out_scheme, it)
              in
              let ordinary ls left =
                let rs, right = run r in
                let common = Attr.Set.inter ls rs in
                finish (Attr.Set.union ls rs) (P.join ctx algo ~common left right)
              in
              let ls, left = run l in
              match (algo, r) with
              | Physical.Index_nested_loop, Physical.Scan inner -> (
                  let common = Attr.Set.inter ls inner in
                  match P.index_join ctx ~common ~outer:left ~inner with
                  | Some it -> finish (Attr.Set.union ls inner) it
                  | None -> ordinary ls left)
              | _ -> ordinary ls left)
      | Physical.Generic_join (ss, order) ->
          (* One n-ary step: the whole sub-hypergraph is joined in a
             single worst-case-optimal pass, so the node contributes
             exactly one τ entry — its output cardinality — where a
             binary lowering would contribute one per internal step. *)
          Obs.span obs "join" (fun () ->
              let node_schemes = Scheme.Set.of_list ss in
              let out_scheme =
                List.fold_left Attr.Set.union Attr.Set.empty ss
              in
              if Obs.enabled obs then begin
                Obs.set_attr obs "algo" (Json.str "wcoj");
                Obs.set_attr obs "scheme" (Json.str (scheme_key node_schemes));
                Obs.set_attr obs "order"
                  (Json.str
                     (String.concat "," (List.map Attr.to_string order)))
              end;
              let it = P.generic_join ctx ~schemes:ss ~order in
              let n = P.cardinality it in
              generated := !generated + n;
              steps := (node_schemes, n) :: !steps;
              P.note_step ctx n;
              if Obs.enabled obs then Obs.set_attr obs "rows" (Json.int n);
              (out_scheme, it))
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
      let scan_node s =
        Obs.span obs "scan" (fun () ->
            let it = P.scan ctx s in
            if Obs.enabled obs then begin
              Obs.set_attr obs "scheme"
                (Json.str (scheme_key (Scheme.Set.singleton s)));
              Obs.set_attr obs "rows" (Json.int (P.cardinality it))
            end;
            it)
      in
      let items = List.map (fun s -> (s, ref (scan_node s))) order in
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
                if Obs.enabled obs then begin
                  Obs.set_attr obs "algo"
                    (Json.str (P.algo_label Physical.Hash_join));
                  Obs.set_attr obs "scheme"
                    (Json.str (scheme_key node_schemes))
                end;
                let common = Attr.Set.inter acc_scheme s in
                let it = P.join ctx Physical.Hash_join ~common acc !(item_of s) in
                let n = P.cardinality it in
                generated := !generated + n;
                steps := (node_schemes, n) :: !steps;
                P.note_step ctx n;
                if Obs.enabled obs then Obs.set_attr obs "rows" (Json.int n);
                (node_schemes, Attr.Set.union acc_scheme s, it))
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
              let it =
                P.ranked ctx
                  ~order:(Attr.Set.elements out_scheme)
                  ~k
                  (List.map (fun (s, r) -> (s, !r)) items)
              in
              let n = P.cardinality it in
              generated := !generated + n;
              steps := (node_schemes, n) :: !steps;
              P.note_step ctx n;
              if Obs.enabled obs then begin
                Obs.set_attr obs "scheme" (Json.str (scheme_key node_schemes));
                Obs.set_attr obs "k" (Json.int k);
                Obs.set_attr obs "rows" (Json.int n)
              end;
              (out_scheme, it))
    in
    let root = Obs.span obs P.root_span (fun () -> run plan) in
    (root, { tuples_generated = !generated; per_step = List.rev !steps })

  let certify ~obs ctx (scheme, item) =
    Obs.span obs "serve.certify" (fun () -> P.digest ctx scheme item)
end

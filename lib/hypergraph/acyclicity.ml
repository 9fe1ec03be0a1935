open Mj_relation

let nonempty_subsets d =
  if Scheme.Set.cardinal d > 15 then
    invalid_arg "Acyclicity.is_beta_acyclic: database scheme too large";
  Hypergraph.subsets d

let is_beta_acyclic d =
  List.for_all Gyo.is_alpha_acyclic (nonempty_subsets d)

type cycle = (Scheme.t * Attr.t) list

(* Depth-first search for a weak cycle.  The sequence under construction
   is kept in reverse: [(Sk, xk-1); ...; (S2, x1); (S1, _)] where xi joins
   Si to Si+1.  Every attribute except (for γ-cycles) the closing one must
   avoid all schemes of the sequence other than its two endpoints; since
   attributes are chosen left to right we check an attribute against the
   earlier schemes when it is picked, and every earlier attribute against
   a scheme when the scheme is appended. *)
let find_cycle ~strict d =
  let schemes = Scheme.Set.elements d in
  let exception Found of cycle in
  (* seq: (scheme, attr-linking-to-next) pairs in order; building forward. *)
  let rec extend s1 seq used_schemes used_attrs last =
    (* Try to close the cycle at length >= 3. *)
    if List.length seq >= 3 then begin
      let closing_candidates = Attr.Set.elements (Attr.Set.inter last s1) in
      List.iter
        (fun x ->
          if not (Attr.Set.mem x used_attrs) then begin
            let ok =
              if not strict then true
              else
                (* β-cycle: the closing attribute is exclusive too. *)
                List.for_all
                  (fun (s, _) ->
                    Scheme.equal s s1 || Scheme.equal s last
                    || not (Attr.Set.mem x s))
                  seq
            in
            if ok then
              raise
                (Found
                   (List.rev_map
                      (fun (s, xo) ->
                        match xo with
                        | Some a -> (s, a)
                        | None -> (s, x) (* last element carries the closer *))
                      seq))
          end)
        closing_candidates
    end;
    (* Try to extend with a fresh scheme. *)
    List.iter
      (fun s_next ->
        if not (Scheme.Set.mem s_next used_schemes) then begin
          (* Every committed attribute must avoid the new scheme. *)
          let committed_ok =
            List.for_all
              (fun (_, xo) ->
                match xo with
                | None -> true
                | Some a -> not (Attr.Set.mem a s_next))
              (match seq with
              | [] -> []
              | _ :: older -> older)
            (* the attribute of the immediately preceding element links to
               s_next, so it is allowed to (indeed must) appear in it *)
          in
          if committed_ok then
            let link_candidates = Attr.Set.elements (Attr.Set.inter last s_next) in
            List.iter
              (fun x ->
                if not (Attr.Set.mem x used_attrs) then begin
                  (* x joins [last] to [s_next]; it must avoid all earlier
                     schemes of the sequence. *)
                  let earlier_ok =
                    List.for_all
                      (fun (s, _) ->
                        Scheme.equal s last || not (Attr.Set.mem x s))
                      seq
                  in
                  if earlier_ok then
                    let seq' =
                      (s_next, None)
                      :: List.map
                           (fun (s, xo) ->
                             if Scheme.equal s last && xo = None then (s, Some x)
                             else (s, xo))
                           seq
                    in
                    extend s1 seq'
                      (Scheme.Set.add s_next used_schemes)
                      (Attr.Set.add x used_attrs) s_next
                end)
              link_candidates
        end)
      schemes
  in
  try
    List.iter
      (fun s1 ->
        extend s1
          [ (s1, None) ]
          (Scheme.Set.singleton s1) Attr.Set.empty s1)
      schemes;
    None
  with Found c -> Some c

let find_gamma_cycle d = find_cycle ~strict:false d
let find_beta_cycle d = find_cycle ~strict:true d
let is_gamma_acyclic d = find_gamma_cycle d = None

(* Berge-acyclicity: the bipartite incidence graph between attributes and
   schemes has no cycle.  A cycle exists iff either two schemes share two
   or more attributes (a 4-cycle) or the shared-attribute structure
   contains a longer cycle; both reduce to "edges = nodes-ish" forest
   counting on the incidence graph. *)
let is_berge_acyclic d =
  let schemes = Scheme.Set.elements d in
  (* Two schemes sharing >= 2 attributes form a Berge cycle outright. *)
  let rec pair_check = function
    | [] -> true
    | s :: rest ->
        List.for_all
          (fun s' -> Attr.Set.cardinal (Attr.Set.inter s s') <= 1)
          rest
        && pair_check rest
  in
  pair_check schemes
  &&
  (* Otherwise the incidence graph is simple; it is a forest iff
     #edges <= #nodes - #components, which we check by union-find over
     attribute and scheme nodes. *)
  let universe = Attr.Set.elements (Scheme.Set.universe d) in
  let attr_index a =
    let rec go i = function
      | [] -> assert false
      | x :: rest -> if Attr.equal x a then i else go (i + 1) rest
    in
    go 0 universe
  in
  let n_attrs = List.length universe in
  let n_nodes = n_attrs + List.length schemes in
  let parent = Array.init n_nodes Fun.id in
  let rec find i = if parent.(i) = i then i else find parent.(i) in
  let acyclic = ref true in
  List.iteri
    (fun si s ->
      Attr.Set.iter
        (fun a ->
          let u = find (attr_index a) and v = find (n_attrs + si) in
          if u = v then acyclic := false else parent.(u) <- v)
        s)
    schemes;
  !acyclic

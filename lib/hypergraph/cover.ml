open Mj_relation

let max_lp_relations = 8

(* The covering constraints of the sub-database [mask], one per
   attribute of its universe: the incidence mask of the schemes (within
   [mask]) carrying that attribute.  Attributes with identical incidence
   impose identical constraints, so the list is deduplicated — for a
   k-clique that collapses the Θ(k²) attributes to the distinct pair
   masks, and for paper-style schemes to a handful of masks. *)
let constraint_masks u mask =
  let seen = Hashtbl.create 16 in
  let out = ref [] in
  let n = Bitdb.size u in
  let attrs =
    let acc = ref Attr.Set.empty in
    for i = 0 to n - 1 do
      if mask land (1 lsl i) <> 0 then
        acc := Attr.Set.union !acc (Bitdb.scheme u i)
    done;
    !acc
  in
  Attr.Set.iter
    (fun a ->
      let m = ref 0 in
      for i = 0 to n - 1 do
        if mask land (1 lsl i) <> 0 && Attr.Set.mem a (Bitdb.scheme u i) then
          m := !m lor (1 lsl i)
      done;
      if not (Hashtbl.mem seen !m) then begin
        Hashtbl.add seen !m ();
        out := !m :: !out
      end)
    attrs;
  List.rev !out

(* Minimum-weight fractional edge cover of the attribute universe of
   [mask]: minimize Σ xᵢ·wᵢ subject to Σ_{i ∋ a} xᵢ ≥ 1 for every
   attribute [a], 0 ≤ xᵢ ≤ 1.  Candidates are x ∈ {0, ½, 1}^k — by the
   half-integrality theorem these are exactly the vertices of the cover
   polytope whenever every attribute occurs in at most two schemes (all
   {!Querygraph} shapes), so enumerating them solves the LP exactly
   there; on denser hypergraphs every candidate is still feasible, so
   the returned weight upper-bounds the LP optimum and the induced AGM
   bound remains valid (AGM holds for {e any} feasible cover).  The
   weight array is indexed by bit position in [mask]; entries outside
   the mask are 0. *)
let fractional_cover u mask ~weight =
  let k = Bitdb.popcount mask in
  if k = 0 || k > max_lp_relations then None
  else begin
    let idx = Array.make k 0 in
    let j = ref 0 in
    for i = 0 to Bitdb.size u - 1 do
      if mask land (1 lsl i) <> 0 then begin
        idx.(!j) <- i;
        incr j
      end
    done;
    let constraints = constraint_masks u mask in
    let x = Array.make k 0.0 in
    let best = Array.make k 1.0 in
    let best_w = ref infinity in
    (* 3^k ≤ 6561 assignments, enumerated in a fixed order so ties
       resolve deterministically (strict improvement only). *)
    let rec go p w =
      if w < !best_w then
        if p = k then begin
          let feasible =
            List.for_all
              (fun m ->
                let s = ref 0.0 in
                for q = 0 to k - 1 do
                  if m land (1 lsl idx.(q)) <> 0 then s := !s +. x.(q)
                done;
                !s >= 1.0)
              constraints
          in
          if feasible then begin
            best_w := w;
            Array.blit x 0 best 0 k
          end
        end
        else
          List.iter
            (fun v ->
              x.(p) <- v;
              go (p + 1) (w +. (v *. weight idx.(p))))
            [ 0.0; 0.5; 1.0 ]
    in
    go 0 0.0;
    if !best_w = infinity then None
    else begin
      let full = Array.make (Bitdb.size u) 0.0 in
      for q = 0 to k - 1 do
        full.(idx.(q)) <- best.(q)
      done;
      Some (full, !best_w)
    end
  end

(* The AGM output bound of the sub-database [mask]: Π cardᵢ^xᵢ for the
   minimum fractional cover weighted by log-cardinalities.  Exponents
   are half-integral, so the product is computed with [sqrt] rather than
   exp/log round-trips.  A zero-cardinality relation empties the join,
   so the bound collapses to 0 (ln 0 is dodged by handling it first). *)
let agm_bound u mask ~card =
  let k = Bitdb.popcount mask in
  if k = 0 || k > max_lp_relations then None
  else begin
    let zero = ref false in
    for i = 0 to Bitdb.size u - 1 do
      if mask land (1 lsl i) <> 0 && card i = 0 then zero := true
    done;
    if !zero then Some 0.0
    else
      let weight i = Float.log (float_of_int (max 1 (card i))) in
      match fractional_cover u mask ~weight with
      | None -> None
      | Some (x, _) ->
          let b = ref 1.0 in
          for i = 0 to Bitdb.size u - 1 do
            if mask land (1 lsl i) <> 0 then begin
              let c = float_of_int (card i) in
              if x.(i) = 1.0 then b := !b *. c
              else if x.(i) = 0.5 then b := !b *. Float.sqrt c
            end
          done;
          Some !b
  end

open Mj_relation
open Mj_hypergraph

type triple_witness = {
  e : Scheme.Set.t;
  e1 : Scheme.Set.t;
  e2 : Scheme.Set.t;
  tau_e_e1 : int;
  tau_e_e2 : int;
}

type pair_witness = {
  p1 : Scheme.Set.t;
  p2 : Scheme.Set.t;
  tau_join : int;
  tau_1 : int;
  tau_2 : int;
}

(* Enumerate the configurations of C1/C1': disjoint connected E, E1, E2
   with E linked to E1 but not to E2, calling [f] on each witness until it
   returns [false] (budget exhausted).

   Both iterators run on bitmasks over the database's indexed universe:
   the connected subsets come straight from the kernel's DPccp-style
   enumerator (sorted into the historical increasing-mask order),
   disjointness is one [land] and linkage one adjacency lookup, and every
   τ goes through the shared {!Cost.Cache} so the same sub-database join
   is never materialized twice — not even across C1 and C2/C3/C4 passes,
   or across the condition checkers and the theorem validators.
   Witnesses are converted back to [Scheme.Set] only when emitted. *)
let iter_triples cache f =
  let u = Cost.Cache.universe cache in
  let connected = Bitdb.connected_subsets u (Bitdb.full u) in
  let continue = ref true in
  List.iter
    (fun e ->
      if !continue then
        List.iter
          (fun e1 ->
            if !continue && e land e1 = 0 && Bitdb.linked u e e1 then
              List.iter
                (fun e2 ->
                  if
                    !continue
                    && e land e2 = 0
                    && e1 land e2 = 0
                    && not (Bitdb.linked u e e2)
                  then begin
                    let w =
                      {
                        e = Bitdb.set_of_mask u e;
                        e1 = Bitdb.set_of_mask u e1;
                        e2 = Bitdb.set_of_mask u e2;
                        tau_e_e1 = Cost.Cache.card_mask cache (e lor e1);
                        tau_e_e2 = Cost.Cache.card_mask cache (e lor e2);
                      }
                    in
                    if not (f w) then continue := false
                  end)
                connected)
          connected)
    connected

let iter_pairs cache f =
  let u = Cost.Cache.universe cache in
  let connected = Bitdb.connected_subsets u (Bitdb.full u) in
  let continue = ref true in
  List.iter
    (fun e1 ->
      if !continue then
        List.iter
          (fun e2 ->
            if !continue && e1 land e2 = 0 && Bitdb.linked u e1 e2 then begin
              let w =
                {
                  p1 = Bitdb.set_of_mask u e1;
                  p2 = Bitdb.set_of_mask u e2;
                  tau_join = Cost.Cache.card_mask cache (e1 lor e2);
                  tau_1 = Cost.Cache.card_mask cache e1;
                  tau_2 = Cost.Cache.card_mask cache e2;
                }
              in
              if not (f w) then continue := false
            end)
          connected)
    connected

let collect ?limit iter bad =
  let acc = ref [] in
  let count = ref 0 in
  iter (fun w ->
      if bad w then begin
        acc := w :: !acc;
        incr count
      end;
      match limit with None -> true | Some l -> !count < l);
  List.rev !acc

let violations_c1 ?limit db =
  let cache = Cost.Cache.create db in
  collect ?limit (iter_triples cache) (fun w -> w.tau_e_e1 > w.tau_e_e2)

let violations_c1_strict ?limit db =
  let cache = Cost.Cache.create db in
  collect ?limit (iter_triples cache) (fun w -> w.tau_e_e1 >= w.tau_e_e2)

let violations_c2 ?limit db =
  let cache = Cost.Cache.create db in
  collect ?limit (iter_pairs cache) (fun w ->
      w.tau_join > w.tau_1 && w.tau_join > w.tau_2)

let violations_c3 ?limit db =
  let cache = Cost.Cache.create db in
  collect ?limit (iter_pairs cache) (fun w ->
      w.tau_join > w.tau_1 || w.tau_join > w.tau_2)

let violations_c4 ?limit db =
  let cache = Cost.Cache.create db in
  collect ?limit (iter_pairs cache) (fun w ->
      w.tau_join < w.tau_1 || w.tau_join < w.tau_2)

type summary = {
  c1 : bool;
  c1_strict : bool;
  c2 : bool;
  c3 : bool;
  c4 : bool;
}

(* The decision on masks.  [card.(m)] is the cardinality of a
   connected mask and [-1] on every other: a mask is connected iff some
   member [i] leaves a connected rest linked to [i] (a connected graph
   has a vertex that is no cut vertex).  [nbr.(m)] is the union of
   [adj] over [m], and [g.(x)] the smallest cardinality of a nonempty
   connected submask of [x] ([max_int] for [x = 0]).

   In a triple, E2 ranges over the nonempty connected submasks of
   [x = full ∖ (E ∪ E1 ∪ nbr E)], and since E2 is not linked to E,
   τ(R_E ⋈ R_E2) is [saturating_mul (card E) (card E2)], the cache's
   own product rule.  It grows with card E2, so C1 holds iff
   [card (E ∪ E1) <= saturating_mul (card E) (g x)] on every pair with
   [x <> 0]; C1' asks for [<].  The linked disjoint connected pairs are
   exactly the splits of a connected mask into two connected parts. *)
let decide u card_of =
  Subset_dp.check_size u;
  let n = Bitdb.size u and full = Bitdb.full u and adj = u.Bitdb.adj in
  let card = Array.make (full + 1) (-1)
  and nbr = Array.make (full + 1) 0
  and g = Array.make (full + 1) max_int in
  for m = 1 to full do
    let connected = ref (m land (m - 1) = 0) and best = ref max_int in
    for i = 0 to n - 1 do
      if m land (1 lsl i) <> 0 then begin
        let rest = m lxor (1 lsl i) in
        nbr.(m) <- nbr.(m) lor adj.(i);
        if card.(rest) >= 0 && adj.(i) land rest <> 0 then connected := true;
        best := Int.min !best g.(rest)
      end
    done;
    if !connected then begin
      let c = card_of m in
      card.(m) <- c;
      best := Int.min !best c
    end;
    g.(m) <- !best
  done;
  let keep = Mj_failpoint.Failpoint.fire Conditions_keep_neighbors in
  let c1 = ref true and c1_strict = ref true in
  let c2 = ref true and c3 = ref true and c4 = ref true in
  (* E = [e] of cardinality [ce]; E ∪ E1 = [m] of cardinality [cm]. *)
  let triple m cm e ce =
    let x = full land lnot (if keep then m else m lor nbr.(e)) in
    if x <> 0 then begin
      let bound = Frame.Db.saturating_mul ce g.(x) in
      if cm > bound then c1 := false;
      if cm >= bound then c1_strict := false
    end
  in
  let m = ref 1 in
  while !m <= full && (!c1 || !c1_strict || !c2 || !c3 || !c4) do
    let cm = card.(!m) in
    if cm >= 0 then
      Subset_dp.iter_anchored_splits !m (fun m1 m2 ->
          let ca = card.(m1) and cb = card.(m2) in
          if ca >= 0 && cb >= 0 then begin
            if cm > ca && cm > cb then c2 := false;
            if cm > ca || cm > cb then c3 := false;
            if cm < ca || cm < cb then c4 := false;
            triple !m cm m1 ca;
            triple !m cm m2 cb
          end);
    incr m
  done;
  { c1 = !c1; c1_strict = !c1_strict; c2 = !c2; c3 = !c3; c4 = !c4 }

let summarize_cached cache =
  decide (Cost.Cache.universe cache) (Cost.Cache.card_mask cache)

let summarize db = summarize_cached (Cost.Cache.create db)
let holds_c1 db = (summarize db).c1
let holds_c1_strict db = (summarize db).c1_strict
let holds_c3 db = (summarize db).c3
let holds_c4 db = (summarize db).c4

let pp_summary fmt s =
  let mark b = if b then "yes" else "no" in
  Format.fprintf fmt "C1:%s C1':%s C2:%s C3:%s C4:%s" (mark s.c1)
    (mark s.c1_strict) (mark s.c2) (mark s.c3) (mark s.c4)

let pp_triple_witness fmt w =
  Format.fprintf fmt
    "E=%a E1=%a E2=%a: tau(E⋈E1)=%d vs tau(E⋈E2)=%d" Scheme.Set.pp w.e
    Scheme.Set.pp w.e1 Scheme.Set.pp w.e2 w.tau_e_e1 w.tau_e_e2

let pp_pair_witness fmt w =
  Format.fprintf fmt "E1=%a E2=%a: tau(E1⋈E2)=%d, tau(E1)=%d, tau(E2)=%d"
    Scheme.Set.pp w.p1 Scheme.Set.pp w.p2 w.tau_join w.tau_1 w.tau_2

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

let holds_c1 db = violations_c1 ~limit:1 db = []
let holds_c1_strict db = violations_c1_strict ~limit:1 db = []
let holds_c3 db = violations_c3 ~limit:1 db = []
let holds_c4 db = violations_c4 ~limit:1 db = []

type summary = {
  c1 : bool;
  c1_strict : bool;
  c2 : bool;
  c3 : bool;
  c4 : bool;
}

let summarize_cached cache =
  let c1 = ref true and c1_strict = ref true in
  iter_triples cache (fun w ->
      if w.tau_e_e1 > w.tau_e_e2 then c1 := false;
      if w.tau_e_e1 >= w.tau_e_e2 then c1_strict := false;
      !c1 || !c1_strict);
  let c2 = ref true and c3 = ref true and c4 = ref true in
  iter_pairs cache (fun w ->
      if w.tau_join > w.tau_1 && w.tau_join > w.tau_2 then c2 := false;
      if w.tau_join > w.tau_1 || w.tau_join > w.tau_2 then c3 := false;
      if w.tau_join < w.tau_1 || w.tau_join < w.tau_2 then c4 := false;
      !c2 || !c3 || !c4);
  { c1 = !c1; c1_strict = !c1_strict; c2 = !c2; c3 = !c3; c4 = !c4 }

let summarize db = summarize_cached (Cost.Cache.create db)

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

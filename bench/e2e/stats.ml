(* Order statistics for latency samples and run-to-run spreads. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

(* Nearest-rank percentile of an ascending array: the smallest sample
   with at least [p] of the samples at or below it. *)
let percentile a p =
  let n = Array.length a in
  if n = 0 then nan
  else
    let rank = int_of_float (Float.ceil (p *. float_of_int n)) in
    a.(max 0 (min (n - 1) (rank - 1)))

(* A percentile is reported as supported only when at least ten
   samples lie strictly above it. *)
let supported n p = n - int_of_float (Float.ceil (p *. float_of_int n)) >= 10

(* Median and quartiles as Python's [statistics.quantiles(xs, n=4)]
   computes them (the default "exclusive" method), so the spreads this
   program prints are the ones an outside check recomputes. *)
let quartiles xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then (nan, nan, nan)
  else if n = 1 then (a.(0), a.(0), a.(0))
  else
    let q i =
      let m = float_of_int (n + 1) *. float_of_int i /. 4. in
      let j = max 1 (min (n - 1) (int_of_float (Float.floor m))) in
      let delta = m -. float_of_int j in
      a.(j - 1) +. ((a.(j) -. a.(j - 1)) *. delta)
    in
    (q 1, q 2, q 3)

let median xs =
  let _, m, _ = quartiles xs in
  m

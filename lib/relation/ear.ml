type t = {
  k : int;
  words : int;
  bits : int array;
  live : int array;
  once : int array;
  many : int array;
  links : int Attr.Map.t;
}

let words_for n = max 1 ((n + Sys.int_size - 1) / Sys.int_size)

(* Set bit [i] of the bitset at [a.(off)]. *)
let set a off i =
  let w = off + (i / Sys.int_size) in
  a.(w) <- a.(w) lor (1 lsl (i mod Sys.int_size))

let make schemes =
  let k = Array.length schemes in
  let occurs =
    Array.fold_left
      (fun m s ->
        Attr.Set.fold
          (fun a m ->
            Attr.Map.update a (fun n -> Some (1 + Option.value n ~default:0)) m)
          s m)
      Attr.Map.empty schemes
  in
  let links, nlinks =
    Attr.Map.fold
      (fun a n (m, b) -> if n >= 2 then (Attr.Map.add a b m, b + 1) else (m, b))
      occurs (Attr.Map.empty, 0)
  in
  let words = words_for nlinks in
  let bits = Array.make (k * words) 0 in
  Array.iteri
    (fun i s ->
      Attr.Set.iter
        (fun a ->
          match Attr.Map.find_opt a links with
          | Some b -> set bits (i * words) b
          | None -> ())
        s)
    schemes;
  let live = Array.make (words_for k) 0 in
  for i = 0 to k - 1 do
    set live 0 i
  done;
  {
    k;
    words;
    bits;
    live;
    once = Array.make words 0;
    many = Array.make words 0;
    links;
  }

let nlinks t = Attr.Map.cardinal t.links
let link t a = Option.value (Attr.Map.find_opt a t.links) ~default:(-1)

let remove t i =
  let w = i / Sys.int_size in
  t.live.(w) <- t.live.(w) land lnot (1 lsl (i mod Sys.int_size))

let[@inline] is_live t i =
  t.live.(i / Sys.int_size) land (1 lsl (i mod Sys.int_size)) <> 0

(* The searches below are top-level functions of their state, not
   closures, so a search allocates nothing. *)

(* Every attribute [e] shares with another live scheme, from word [w]
   on, lies in [p]. *)
let rec covers t e p w =
  w >= t.words
  || t.bits.((e * t.words) + w)
     land t.many.(w)
     land lnot t.bits.((p * t.words) + w)
     = 0
     && covers t e p (w + 1)

let rec witness t e p =
  if p >= t.k then -1
  else if p <> e && is_live t p && covers t e p 0 then p
  else witness t e (p + 1)

let rec ear t e =
  if e >= t.k then -1
  else if is_live t e then
    match witness t e 0 with -1 -> ear t (e + 1) | p -> (e * t.k) + p
  else ear t (e + 1)

let find t =
  let words = t.words and once = t.once and many = t.many in
  Array.fill once 0 words 0;
  Array.fill many 0 words 0;
  for i = 0 to t.k - 1 do
    if is_live t i then
      for w = 0 to words - 1 do
        let m = t.bits.((i * words) + w) in
        many.(w) <- many.(w) lor (once.(w) land m);
        once.(w) <- once.(w) lor m
      done
  done;
  ear t 0

(* A tuple is a header of strictly ascending attributes and the values
   at the same positions.  Headers are never mutated, so tuples built
   from one [header] share it physically — which lets [compare] skip
   the attribute comparisons and [is_over] answer with one pointer
   test. *)
type t = { attrs : Attr.t array; vals : Value.t array }
type header = Attr.t array

let empty = { attrs = [||]; vals = [||] }
let header scheme = Array.of_list (Attr.Set.elements scheme)

let of_columns header get =
  { attrs = header; vals = Array.init (Array.length header) get }

(* The error names the first binding, in list order, whose attribute
   is already bound. *)
let rec first_rebinding seen = function
  | [] -> assert false
  | (a, _) :: rest ->
      if List.exists (Attr.equal a) seen then
        invalid_arg
          (Printf.sprintf "Tuple.of_list: attribute %s bound twice"
             (Attr.to_string a))
      else first_rebinding (a :: seen) rest

let of_list bindings =
  let arr = Array.of_list bindings in
  Array.stable_sort (fun (a, _) (b, _) -> Attr.compare a b) arr;
  for k = 1 to Array.length arr - 1 do
    if Attr.equal (fst arr.(k - 1)) (fst arr.(k)) then
      first_rebinding [] bindings
  done;
  { attrs = Array.map fst arr; vals = Array.map snd arr }

let of_string_list bindings =
  of_list (List.map (fun (name, v) -> (Attr.make name, v)) bindings)

let is_over header t =
  t.attrs == header
  || Array.length t.attrs = Array.length header
     && Array.for_all2 Attr.equal t.attrs header

let bindings t =
  List.init (Array.length t.attrs) (fun k -> (t.attrs.(k), t.vals.(k)))

let iter f t =
  for k = 0 to Array.length t.attrs - 1 do
    f (Array.unsafe_get t.attrs k) (Array.unsafe_get t.vals k)
  done

let scheme t = Attr.Set.of_list (Array.to_list t.attrs)

(* The position of [a] in the header, or [-(p + 1)] where [p] is the
   position it would be inserted at. *)
let locate t a =
  let rec go lo hi =
    if lo >= hi then -(lo + 1)
    else
      let mid = (lo + hi) lsr 1 in
      let c = Attr.compare a t.attrs.(mid) in
      if c = 0 then mid else if c < 0 then go lo mid else go (mid + 1) hi
  in
  go 0 (Array.length t.attrs)

let get t a =
  let k = locate t a in
  if k < 0 then raise Not_found else t.vals.(k)

let get_opt t a =
  let k = locate t a in
  if k < 0 then None else Some t.vals.(k)

let set t a v =
  let k = locate t a in
  if k >= 0 then begin
    let vals = Array.copy t.vals in
    vals.(k) <- v;
    { t with vals }
  end
  else
    let p = -(k + 1) in
    let n = Array.length t.attrs in
    let insert arr x =
      Array.init (n + 1) (fun j ->
          if j < p then arr.(j) else if j = p then x else arr.(j - 1))
    in
    { attrs = insert t.attrs a; vals = insert t.vals v }

let restrict t x =
  let keep = Array.map (fun a -> Attr.Set.mem a x) t.attrs in
  let m = Array.fold_left (fun m b -> if b then m + 1 else m) 0 keep in
  if m = Array.length t.attrs then t
  else if m = 0 then empty
  else begin
    let attrs = Array.make m t.attrs.(0) and vals = Array.make m t.vals.(0) in
    let j = ref 0 in
    Array.iteri
      (fun k b ->
        if b then begin
          attrs.(!j) <- t.attrs.(k);
          vals.(!j) <- t.vals.(k);
          incr j
        end)
      keep;
    { attrs; vals }
  end

let joinable t1 t2 =
  let n1 = Array.length t1.attrs and n2 = Array.length t2.attrs in
  let rec go i j =
    i >= n1 || j >= n2
    ||
    let c = Attr.compare t1.attrs.(i) t2.attrs.(j) in
    if c < 0 then go (i + 1) j
    else if c > 0 then go i (j + 1)
    else Value.equal t1.vals.(i) t2.vals.(j) && go (i + 1) (j + 1)
  in
  go 0 0

(* Two walks over the headers: the first checks every common attribute
   and sizes the union, the second fills it.  When one scheme contains
   the other, the larger tuple already is the merge. *)
let merge t1 t2 =
  let n1 = Array.length t1.attrs and n2 = Array.length t2.attrs in
  let rec size i j m =
    if i >= n1 then m + n2 - j
    else if j >= n2 then m + n1 - i
    else
      let c = Attr.compare t1.attrs.(i) t2.attrs.(j) in
      if c < 0 then size (i + 1) j (m + 1)
      else if c > 0 then size i (j + 1) (m + 1)
      else if Value.equal t1.vals.(i) t2.vals.(j) then
        size (i + 1) (j + 1) (m + 1)
      else
        invalid_arg
          (Printf.sprintf "Tuple.merge: conflicting values for %s"
             (Attr.to_string t1.attrs.(i)))
  in
  let m = size 0 0 0 in
  if m = n1 then t1
  else if m = n2 then t2
  else begin
    let attrs = Array.make m t1.attrs.(0) and vals = Array.make m t1.vals.(0) in
    let rec fill i j k =
      if k < m then
        let take1 =
          j >= n2 || (i < n1 && Attr.compare t1.attrs.(i) t2.attrs.(j) <= 0)
        in
        if take1 then begin
          attrs.(k) <- t1.attrs.(i);
          vals.(k) <- t1.vals.(i);
          let j =
            if j < n2 && Attr.equal t1.attrs.(i) t2.attrs.(j) then j + 1 else j
          in
          fill (i + 1) j (k + 1)
        end
        else begin
          attrs.(k) <- t2.attrs.(j);
          vals.(k) <- t2.vals.(j);
          fill i (j + 1) (k + 1)
        end
    in
    fill 0 0 0;
    { attrs; vals }
  end

(* Lexicographic over the (attribute, value) pairs, a proper prefix
   first.  State order, decode order and the result digest all rest on
   this order, so it must not change. *)
let compare t1 t2 =
  let n1 = Array.length t1.vals and n2 = Array.length t2.vals in
  let n = if n1 < n2 then n1 else n2 in
  let shared = t1.attrs == t2.attrs in
  let rec go k =
    if k = n then Int.compare n1 n2
    else
      let c = if shared then 0 else Attr.compare t1.attrs.(k) t2.attrs.(k) in
      if c <> 0 then c
      else
        let c = Value.compare t1.vals.(k) t2.vals.(k) in
        if c <> 0 then c else go (k + 1)
  in
  go 0

let equal t1 t2 = compare t1 t2 = 0

let pp fmt t =
  let pp_binding fmt (a, v) =
    Format.fprintf fmt "%a=%a" Attr.pp a Value.pp v
  in
  Format.fprintf fmt "(%a)"
    (Format.pp_print_list
       ~pp_sep:(fun fmt () -> Format.pp_print_string fmt ", ")
       pp_binding)
    (bindings t)

let to_string t = Format.asprintf "%a" pp t

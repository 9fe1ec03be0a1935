(* A tuple is a header of strictly ascending attributes and the values
   at the same positions.  Headers are never mutated, so tuples built
   from one [header] share it physically — which lets [compare] skip
   the attribute comparisons and [is_over] answer with one pointer
   test.

   The per-tuple primitives below are plain loops: without flambda a
   local recursive closure is allocated on every call, and these run
   once per generated tuple or comparison. *)
type t = { attrs : Attr.t array; vals : Value.t array }
type header = Attr.t array

let empty = { attrs = [||]; vals = [||] }
let header scheme = Array.of_list (Attr.Set.elements scheme)
let header_of t = t.attrs

let of_values header vals =
  if Array.length vals <> Array.length header then
    invalid_arg "Tuple.of_values: value count differs from header width";
  { attrs = header; vals }

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

(* Physically one header, or two headers over the same attributes. *)
let same_header h1 h2 =
  h1 == h2
  ||
  let n = Array.length h1 in
  n = Array.length h2
  &&
  let k = ref 0 in
  while !k < n && Attr.equal h1.(!k) h2.(!k) do
    incr k
  done;
  !k = n

let is_over header t = same_header t.attrs header

let bindings t =
  List.init (Array.length t.attrs) (fun k -> (t.attrs.(k), t.vals.(k)))

let iter f t =
  for k = 0 to Array.length t.attrs - 1 do
    f (Array.unsafe_get t.attrs k) (Array.unsafe_get t.vals k)
  done

let scheme t = Attr.Set.of_list (Array.to_list t.attrs)

(* The position of [a] in [attrs], or [-(p + 1)] where [p] is the
   position it would be inserted at. *)
let locate attrs a =
  let lo = ref 0 and hi = ref (Array.length attrs) and found = ref (-1) in
  while !found < 0 && !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    let c = Attr.compare a attrs.(mid) in
    if c = 0 then found := mid else if c < 0 then hi := mid else lo := mid + 1
  done;
  if !found >= 0 then !found else -(!lo + 1)

let get t a =
  let k = locate t.attrs a in
  if k < 0 then raise Not_found else t.vals.(k)

let get_opt t a =
  let k = locate t.attrs a in
  if k < 0 then None else Some t.vals.(k)

let set t a v =
  let k = locate t.attrs a in
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

(* A merge compiled for one pair of input headers: the output header
   and, per output column, where its value comes from.  [out] is [h1]
   when [h2]'s attributes are all in [h1], else [h2] when [h1]'s are
   all in [h2] — the larger tuple then already is the merge — and
   otherwise one fresh header that every merged tuple shares. *)
type plan = {
  h1 : header;
  h2 : header;
  out : header;
  src : int array; (* column k reads t1's src.(k), or t2's -(src.(k) + 1) *)
  c1 : int array; (* the common attributes' columns in t1, ascending *)
  c2 : int array; (* ... and in t2 *)
}

let compile h1 h2 =
  let out = header (Attr.Set.of_list (Array.to_list h1 @ Array.to_list h2)) in
  let source a =
    let k = locate h1 a in
    if k >= 0 then k else -locate h2 a - 1
  in
  let common = List.filter (fun a -> locate h2 a >= 0) (Array.to_list h1) in
  let m = Array.length out in
  {
    h1;
    h2;
    out =
      (if m = Array.length h1 then h1
       else if m = Array.length h2 then h2
       else out);
    src = Array.map source out;
    c1 = Array.of_list (List.map (locate h1) common);
    c2 = Array.of_list (List.map (locate h2) common);
  }

let conflict a =
  invalid_arg
    (Printf.sprintf "Tuple.merge: conflicting values for %s" (Attr.to_string a))

let source p t1 t2 k =
  let s = p.src.(k) in
  if s >= 0 then t1.vals.(s) else t2.vals.(-s - 1)

(* Checks the common columns in increasing attribute order, so a
   conflict names the least disagreeing attribute; a fresh result costs
   its value array and record, nothing else. *)
let apply p t1 t2 =
  let c1 = p.c1 and c2 = p.c2 in
  for k = 0 to Array.length c1 - 1 do
    let i = c1.(k) in
    if not (Value.equal t1.vals.(i) t2.vals.(c2.(k))) then conflict t1.attrs.(i)
  done;
  if p.out == p.h1 then t1
  else if p.out == p.h2 then t2
  else begin
    (* Neither scheme contains the other, so the output has columns. *)
    let m = Array.length p.src in
    let vals = Array.make m (source p t1 t2 0) in
    for k = 1 to m - 1 do
      vals.(k) <- source p t1 t2 k
    done;
    { attrs = p.out; vals }
  end

let merge t1 t2 = apply (compile t1.attrs t2.attrs) t1 t2

let merger () =
  let plan = ref None in
  fun t1 t2 ->
    match !plan with
    | Some p when same_header p.h1 t1.attrs && same_header p.h2 t2.attrs ->
        apply p t1 t2
    | _ ->
        let p = compile t1.attrs t2.attrs in
        plan := Some p;
        apply p t1 t2

let key_extractor common =
  let attrs = Array.of_list (Attr.Set.elements common) in
  let columns = ref None in
  fun t ->
    let pos =
      match !columns with
      | Some (h, pos) when same_header h t.attrs -> pos
      | _ ->
          let pos =
            Array.map
              (fun a ->
                let k = locate t.attrs a in
                if k < 0 then raise Not_found else k)
              attrs
          in
          columns := Some (t.attrs, pos);
          pos
    in
    let key = ref [] in
    for k = Array.length pos - 1 downto 0 do
      key := t.vals.(pos.(k)) :: !key
    done;
    !key

(* Lexicographic over the (attribute, value) pairs, a proper prefix
   first.  State order, decode order and the result digest all rest on
   this order, so it must not change. *)
let compare t1 t2 =
  let n1 = Array.length t1.vals and n2 = Array.length t2.vals in
  let n = if n1 < n2 then n1 else n2 in
  let shared = t1.attrs == t2.attrs in
  let k = ref 0 and c = ref 0 in
  while !c = 0 && !k < n do
    let a = if shared then 0 else Attr.compare t1.attrs.(!k) t2.attrs.(!k) in
    c := if a <> 0 then a else Value.compare t1.vals.(!k) t2.vals.(!k);
    incr k
  done;
  if !c <> 0 then !c else Int.compare n1 n2

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

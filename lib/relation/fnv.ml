(* 64-bit FNV-1a.  Every loop below holds the state in a local [Int64]
   variable, which ocamlopt keeps unboxed: a byte costs one xor and one
   multiply, and a block of rows allocates nothing until its final
   state is stored back into the stream.  [byte], [string] and [int]
   are inlined into those loops, so the state never crosses a call. *)

let prime = 0x100000001b3L

let[@inline] byte h b = Int64.mul (Int64.logxor h (Int64.of_int b)) prime

let[@inline] string h s =
  let h = ref h in
  for i = 0 to String.length s - 1 do
    h := byte !h (Char.code (String.unsafe_get s i))
  done;
  !h

(* [string_of_int n]'s bytes, rendered backwards into [digits] (20
   bytes: [min_int] is a sign and 19 digits) and hashed forwards.  The
   digits come from the non-positive side, so [min_int] needs no
   special case ([m mod 10] is then in [-9, 0]). *)
let[@inline] int digits h n =
  let m = ref (if n < 0 then n else -n) and i = ref 20 in
  let more = ref true in
  while !more do
    decr i;
    Bytes.unsafe_set digits !i (Char.unsafe_chr (48 - (!m mod 10)));
    m := !m / 10;
    more := !m <> 0
  done;
  if n < 0 then begin
    decr i;
    Bytes.unsafe_set digits !i '-'
  end;
  let h = ref h in
  for k = !i to 19 do
    h := byte !h (Char.code (Bytes.unsafe_get digits k))
  done;
  !h

(* The result stream: the scheme string, then per row
   ["\n(" A "=" v ", " B "=" v ... ")"].  Column [j]'s prefix is built
   once per stream. *)
type result = {
  labels : string array;
  digits : Bytes.t; (* this stream's scratch for [int] *)
  mutable h : int64;
}

let result scheme =
  let labels =
    Array.of_list
      (List.mapi
         (fun j a -> (if j = 0 then "\n(" else ", ") ^ Attr.name a ^ "=")
         (Attr.Set.elements scheme))
  in
  {
    labels;
    digits = Bytes.create 20;
    h = string 0xcbf29ce484222325L (Attr.Set.to_string scheme);
  }

let close = Char.code ')'

let check_width fn s width =
  if width <> Array.length s.labels then
    invalid_arg (fn ^ ": rows differ in width from the scheme")

let text_rows s ~text ~data ~width ?perm n =
  check_width "Fnv.text_rows" s width;
  let labels = s.labels in
  let h = ref s.h in
  for r = 0 to n - 1 do
    let base = (match perm with None -> r | Some p -> p.(r)) * width in
    for j = 0 to width - 1 do
      h := string !h (Array.unsafe_get labels j);
      h := string !h text.(data.(base + j))
    done;
    h := byte !h close
  done;
  s.h <- !h

let tuples s rows =
  let width = Array.length s.labels in
  let labels = s.labels and digits = s.digits in
  let h = ref s.h in
  for r = 0 to Array.length rows - 1 do
    let tu = rows.(r) in
    check_width "Fnv.tuples" s (Tuple.width tu);
    for j = 0 to width - 1 do
      h := string !h (Array.unsafe_get labels j);
      h :=
        (match Tuple.value tu j with
        | Value.Int n -> int digits !h n
        | Value.Str v -> string !h v)
    done;
    h := byte !h close
  done;
  s.h <- !h

let digest s = s.h

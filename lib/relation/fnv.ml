(* 64-bit FNV-1a with the state split into 32-bit halves [hi] and
   [lo].  The prime is 2^40 + 0x1b3, so one multiply step is
   h * 0x1b3 + (h lsl 40) mod 2^64: the low half's product carries into
   the high half, and of [h lsl 40] only [lo lsl 8] lands below bit 64.
   Every intermediate stays under 2^42, well inside a native int. *)

type t = { mutable lo : int; mutable hi : int }

let mask32 = 0xffffffff
let create () = { lo = 0x84222325; hi = 0xcbf29ce4 }

let[@inline] byte t b =
  let lo = t.lo lxor b in
  let m = lo * 0x1b3 in
  t.hi <- ((t.hi * 0x1b3) + (m lsr 32) + (lo lsl 8)) land mask32;
  t.lo <- m land mask32

let string t s =
  let lo = ref t.lo and hi = ref t.hi in
  for i = 0 to String.length s - 1 do
    let l = !lo lxor Char.code (String.unsafe_get s i) in
    let m = l * 0x1b3 in
    hi := ((!hi * 0x1b3) + (m lsr 32) + (l lsl 8)) land mask32;
    lo := m land mask32
  done;
  t.lo <- !lo;
  t.hi <- !hi

let char t c = byte t (Char.code c)

(* Digits most-significant first, on the non-positive side so that
   [min_int] needs no special case ([m mod 10] is then in [-9, 0]). *)
let rec digits t m =
  if m <= -10 then digits t (m / 10);
  byte t (Char.code '0' - (m mod 10))

let int t n =
  if n < 0 then char t '-';
  digits t (if n < 0 then n else -n)

let value t = function Value.Int i -> int t i | Value.Str s -> string t s

let to_int64 t =
  Int64.logor (Int64.shift_left (Int64.of_int t.hi) 32) (Int64.of_int t.lo)

(* The result stream: the scheme string, then per row
   ["\n(" A "=" v ", " B "=" v ... ")"].  Column [j]'s prefix is built
   once per stream and [col] is the next column of the current row, so
   a row costs its bytes and nothing else. *)
type result = { h : t; labels : string array; mutable col : int }

let result scheme =
  let h = create () in
  string h (Attr.Set.to_string scheme);
  let labels =
    Array.of_list
      (List.mapi
         (fun j a -> (if j = 0 then "\n(" else ", ") ^ Attr.name a ^ "=")
         (Attr.Set.elements scheme))
  in
  { h; labels; col = 0 }

let next_cell s =
  if s.col >= Array.length s.labels then
    invalid_arg "Fnv.cell: row wider than the scheme";
  string s.h s.labels.(s.col);
  s.col <- s.col + 1

let cell_value s v =
  next_cell s;
  value s.h v

let cell_text s text =
  next_cell s;
  string s.h text

let end_row s =
  if s.col <> Array.length s.labels then
    invalid_arg "Fnv.end_row: row narrower than the scheme";
  char s.h ')';
  s.col <- 0

let digest s = to_int64 s.h

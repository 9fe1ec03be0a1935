open Mj_relation

type gen =
  rng:Random.State.t -> rows:int -> domain:int -> Scheme.t -> Coded.block

let check_args rows domain =
  if rows < 0 then invalid_arg "Datagen: negative row count";
  if domain < 1 then invalid_arg "Datagen: domain must be positive"

(* [rows] rows over [scheme], the cells drawn by [draw] in row-major
   order (column index = position in the sorted scheme). *)
let fill ~rows scheme draw =
  let w = Attr.Set.cardinal scheme in
  let codes = Array.make (rows * w) 0 in
  for i = 0 to (rows * w) - 1 do
    codes.(i) <- draw (i mod w)
  done;
  { Coded.rows; codes }

let uniform ~rng ~rows ~domain scheme =
  check_args rows domain;
  fill ~rows scheme (fun _ -> Random.State.int rng domain)

(* Zipf sampling by inverse transform over the precomputed CDF. *)
let zipf_sampler ~rng ~domain ~skew =
  if skew < 0.0 then invalid_arg "Datagen.zipf: negative skew";
  let weights =
    Array.init domain (fun k -> 1.0 /. Float.pow (float_of_int (k + 1)) skew)
  in
  let total = Array.fold_left ( +. ) 0.0 weights in
  let cdf = Array.make domain 0.0 in
  let acc = ref 0.0 in
  Array.iteri
    (fun k w ->
      acc := !acc +. (w /. total);
      cdf.(k) <- !acc)
    weights;
  fun () ->
    let u = Random.State.float rng 1.0 in
    (* Binary search for the first cdf entry >= u. *)
    let rec search lo hi =
      if lo >= hi then lo
      else
        let mid = (lo + hi) / 2 in
        if cdf.(mid) >= u then search lo mid else search (mid + 1) hi
    in
    search 0 (domain - 1)

let zipf ~rng ~rows ~domain ~skew scheme =
  check_args rows domain;
  let sample = zipf_sampler ~rng ~domain ~skew in
  fill ~rows scheme (fun _ -> sample ())

(* The first [take] values of a Fisher-Yates shuffle of [arr]. *)
let shuffled_sample ~rng ~take arr =
  let n = Array.length arr in
  for k = n - 1 downto 1 do
    let j = Random.State.int rng (k + 1) in
    let tmp = arr.(k) in
    arr.(k) <- arr.(j);
    arr.(j) <- tmp
  done;
  Array.sub arr 0 take

let injective ~rng ~rows ~domain scheme =
  check_args rows domain;
  if rows > domain then
    invalid_arg "Datagen.injective: more rows than domain values";
  if rows = 0 then { Coded.rows = 0; codes = [||] }
  else begin
    (* Row 0 is the all-zeros spine; the remaining rows draw distinct
       non-zero values per column, so each column stays injective and
       every database built this way has the spine in its global join. *)
    let columns =
      Array.init (Attr.Set.cardinal scheme) (fun _ ->
          Array.append [| 0 |]
            (shuffled_sample ~rng ~take:(rows - 1)
               (Array.init (domain - 1) (fun v -> v + 1))))
    in
    let w = Array.length columns in
    { Coded.rows; codes = Array.init (rows * w) (fun i -> columns.(i mod w).(i / w)) }
  end

let correlated ~rng ~rows ~domain ~noise scheme =
  check_args rows domain;
  if noise < 0.0 || noise > 1.0 then
    invalid_arg "Datagen.correlated: noise outside [0, 1]";
  (* Column 0 of each row draws the row's base value first. *)
  let base = ref 0 in
  fill ~rows scheme (fun idx ->
      if idx = 0 then begin
        base := Random.State.int rng domain;
        !base
      end
      else if Random.State.float rng 1.0 >= noise then !base
      else Random.State.int rng domain)

(* The spine is appended unsorted; [Coded.of_ints] canonicalizes, and
   drops it if the generator already drew it. *)
let with_spine gen ~rng ~rows ~domain scheme =
  let b = gen ~rng ~rows ~domain scheme in
  {
    Coded.rows = b.Coded.rows + 1;
    codes = Array.append b.codes (Array.make (Attr.Set.cardinal scheme) 0);
  }

open Mj_relation

let check_args rows domain =
  if rows < 0 then invalid_arg "Datagen: negative row count";
  if domain < 1 then invalid_arg "Datagen: domain must be positive"

(* Every generator builds its rows from one header per relation;
   [Tuple.of_columns] draws the cells of a row in column order, so the
   draws are row-major. *)
let uniform ~rng ~rows ~domain scheme =
  check_args rows domain;
  let header = Tuple.header scheme in
  let tuples =
    List.init rows (fun _ ->
        Tuple.of_columns header (fun _ ->
            Value.int (Random.State.int rng domain)))
  in
  Relation.make scheme tuples

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
  let header = Tuple.header scheme in
  let tuples =
    List.init rows (fun _ ->
        Tuple.of_columns header (fun _ -> Value.int (sample ())))
  in
  Relation.make scheme tuples

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
  let width = Attr.Set.cardinal scheme in
  if rows = 0 then Relation.empty scheme
  else begin
    (* Row 0 is the all-zeros spine; the remaining rows draw distinct
       non-zero values per column, so each column stays injective and
       every database built this way has the spine in its global join. *)
    let columns =
      Array.init width (fun _ ->
          Array.append [| 0 |]
            (shuffled_sample ~rng ~take:(rows - 1)
               (Array.init (domain - 1) (fun v -> v + 1))))
    in
    let header = Tuple.header scheme in
    let tuples =
      List.init rows (fun r ->
          Tuple.of_columns header (fun c -> Value.int columns.(c).(r)))
    in
    Relation.make scheme tuples
  end

let correlated ~rng ~rows ~domain ~noise scheme =
  check_args rows domain;
  if noise < 0.0 || noise > 1.0 then
    invalid_arg "Datagen.correlated: noise outside [0, 1]";
  let header = Tuple.header scheme in
  let tuples =
    List.init rows (fun _ ->
        let base = Random.State.int rng domain in
        Tuple.of_columns header (fun idx ->
            let v =
              if idx = 0 || Random.State.float rng 1.0 >= noise then base
              else Random.State.int rng domain
            in
            Value.int v))
  in
  Relation.make scheme tuples

let with_spine gen ~rng ~rows ~domain scheme =
  let r = gen ~rng ~rows ~domain scheme in
  let spine = Tuple.of_columns (Tuple.header scheme) (fun _ -> Value.int 0) in
  Relation.add spine r

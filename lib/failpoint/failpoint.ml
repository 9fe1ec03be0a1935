type t =
  | Pool_worker_kill
  | Cache_poison
  | Estimate_oversize
  | Frame_lossy_join
  | Yann_lossy_semijoin
  | Serve_worker_stall
  | Serve_stale_plan
  | Frame_skip_root_sort
  | Cost_cp_product
  | Frame_lost_morsel

exception Injected of string

let all =
  [
    Pool_worker_kill;
    Cache_poison;
    Estimate_oversize;
    Frame_lossy_join;
    Yann_lossy_semijoin;
    Serve_worker_stall;
    Serve_stale_plan;
    Frame_skip_root_sort;
    Cost_cp_product;
    Frame_lost_morsel;
  ]

let name = function
  | Pool_worker_kill -> "pool.worker_kill"
  | Cache_poison -> "cost.cache_poison"
  | Estimate_oversize -> "estimate.oversize"
  | Frame_lossy_join -> "frame.lossy_join"
  | Yann_lossy_semijoin -> "yann.lossy_semijoin"
  | Serve_worker_stall -> "serve.worker_stall"
  | Serve_stale_plan -> "serve.cache_stale_plan"
  | Frame_skip_root_sort -> "frame.skip_root_sort"
  | Cost_cp_product -> "cost.cp_product"
  | Frame_lost_morsel -> "frame.lost_morsel"

let of_name s =
  let s = String.lowercase_ascii (String.trim s) in
  List.find_opt (fun p -> name p = s) all

let index = function
  | Pool_worker_kill -> 0
  | Cache_poison -> 1
  | Estimate_oversize -> 2
  | Frame_lossy_join -> 3
  | Yann_lossy_semijoin -> 4
  | Serve_worker_stall -> 5
  | Serve_stale_plan -> 6
  | Frame_skip_root_sort -> 7
  | Cost_cp_product -> 8
  | Frame_lost_morsel -> 9

(* One atomic bitmask of active points, one atomic hit counter per
   point: consultation from pool workers running on other domains is
   racy by nature, and atomics keep it well-defined. *)
let active_mask = Atomic.make 0
let hit_counts = Array.init (List.length all) (fun _ -> Atomic.make 0)

let active p = Atomic.get active_mask land (1 lsl index p) <> 0

let enable p =
  let bit = 1 lsl index p in
  let rec loop () =
    let m = Atomic.get active_mask in
    if not (Atomic.compare_and_set active_mask m (m lor bit)) then loop ()
  in
  loop ()

let disable p =
  let bit = 1 lsl index p in
  let rec loop () =
    let m = Atomic.get active_mask in
    if not (Atomic.compare_and_set active_mask m (m land lnot bit)) then loop ()
  in
  loop ()

let reset () =
  Atomic.set active_mask 0;
  Array.iter (fun c -> Atomic.set c 0) hit_counts

let set_spec s =
  let parts =
    String.split_on_char ',' s
    |> List.map String.trim
    |> List.filter (fun p -> p <> "")
  in
  let rec resolve acc = function
    | [] -> Ok (List.rev acc)
    | p :: rest -> (
        match of_name p with
        | Some fp -> resolve (fp :: acc) rest
        | None ->
            Error
              (Printf.sprintf "unknown failpoint %s (expected one of %s)" p
                 (String.concat ", " (List.map name all))))
  in
  match resolve [] parts with
  | Error _ as e -> e
  | Ok fps ->
      Atomic.set active_mask 0;
      List.iter enable fps;
      Ok ()

let spec () =
  all
  |> List.filter active
  |> List.map name
  |> String.concat ","

let with_saved f =
  let saved = spec () in
  Fun.protect
    ~finally:(fun () ->
      reset ();
      match set_spec saved with Ok () -> () | Error _ -> ())
    f

let fire p =
  if active p then begin
    Atomic.incr hit_counts.(index p);
    true
  end
  else false

let trip p = if fire p then raise (Injected (name p))

let hits p = Atomic.get hit_counts.(index p)

(* The pool no longer reads MJ_DOMAINS itself: the environment is
   resolved exactly once, by [Mj_engine.Engine.Config.of_env], which
   registers the result here.  First registration wins, so the default
   is stable for the whole process however many configs are built. *)
let env_domains = ref None

let set_env_domains d =
  match !env_domains with
  | None -> env_domains := Some (max 1 d)
  | Some _ -> ()

let default_domains () =
  match !env_domains with
  | Some d -> d
  | None -> max 1 (min 8 (Domain.recommended_domain_count ()))

(* Every run that had to cut its worker count down to the machine's
   recommended domain count bumps this — the process-wide record that
   "4 domains" silently became fewer.  [run_traced] also surfaces the
   event as the [pool.domains_clamped] sink counter so a single bench
   trace is diagnosable without process-global state. *)
let clamped = Atomic.make 0
let clamp_events () = Atomic.get clamped

(* Read once: the runtime's recommendation does not change while the
   process runs, and asking for it costs a system call. *)
let cores = max 1 (Domain.recommended_domain_count ())
let workers d = min (max 1 d) cores

(* Helper domains, kept for the life of the process.  A run that needs
   k spawned workers takes k idle helpers (spawning one only when none
   is idle) and hands each a job; a helper runs it, goes back on the
   idle stack and reports.  Spawning and joining a fresh domain per run
   orphaned its minor heap and major-heap pools every time, so peak RSS
   drifted up with the number of parallel runs.  A run never waits for
   a busy helper, so a task that itself runs the pool cannot deadlock:
   it takes other helpers, or spawns more. *)
type helper = {
  hm : Mutex.t;
  hc : Condition.t;
  mutable job : (unit -> unit) option;
}

let idle = ref []
let idle_m = Mutex.create ()

let park h =
  Mutex.lock idle_m;
  idle := h :: !idle;
  Mutex.unlock idle_m

let rec serve h =
  Mutex.lock h.hm;
  while h.job = None do
    Condition.wait h.hc h.hm
  done;
  let job = Option.get h.job in
  h.job <- None;
  Mutex.unlock h.hm;
  job ();
  serve h

(* Start [job] on an idle or new helper; [job] must not raise and must
   park its helper (passed to it) before reporting completion. *)
let hand_off job =
  Mutex.lock idle_m;
  let h =
    match !idle with
    | h :: rest ->
        idle := rest;
        Some h
    | [] -> None
  in
  Mutex.unlock idle_m;
  let h =
    match h with
    | Some h -> h
    | None ->
        let h = { hm = Mutex.create (); hc = Condition.create (); job = None } in
        ignore (Domain.spawn (fun () -> serve h));
        h
  in
  Mutex.lock h.hm;
  h.job <- Some (fun () -> job h);
  Condition.signal h.hc;
  Mutex.unlock h.hm

(* Internal driver: tasks receive the index of the worker running them
   (0 = the calling domain, 1..d-1 = helper domains) so [run_traced]
   can tag trace lanes.  Results never depend on the worker index. *)
let run_w ?domains ?(chunk = 1) (tasks : (worker:int -> 'a) array) =
  let n = Array.length tasks in
  let d = match domains with Some d -> max 1 d | None -> default_domains () in
  (* Never oversubscribe cores: extra domains on a saturated machine buy
     no throughput for CPU-bound tasks and pay minor-GC synchronization
     for every domain on every collection.  Results are unaffected —
     the pool merges in task-index order at any worker count — but the
     clamp is counted, because a "4-domain" bench on a small machine is
     really measuring fewer workers. *)
  if d > cores && n > cores then Atomic.incr clamped;
  let d = workers d in
  let d = min d n in
  let chunk = max 1 chunk in
  if d <= 1 then Array.map (fun task -> task ~worker:0) tasks
  else begin
    let results = Array.make n None in
    let next = Atomic.make 0 in
    (* Work-stealing by shared counter: each slot is written by exactly
       one worker, and the completion handshake below publishes those
       writes before the merge reads them.  Workers claim [chunk] consecutive tasks
       per fetch-and-add — one atomic operation amortized over a batch,
       which matters when the tasks are sub-millisecond morsels.
       Results are merged in task-index order, so the output is
       deterministic whatever the interleaving. *)
    let worker ~id () =
      let spawned = id > 0 in
      let rec loop ~first =
        let base = Atomic.fetch_and_add next chunk in
        if base < n then begin
          (* The kill failpoint takes a spawned worker down after it has
             claimed (but not completed) its first batch — the worst
             crash point: the indices are lost from the shared counter
             and only the recovery pass below can finish them.  The
             calling domain never trips, so a survivor always exists. *)
          if spawned && first then Mj_failpoint.Failpoint.trip Pool_worker_kill;
          for i = base to min n (base + chunk) - 1 do
            results.(i) <- Some (tasks.(i) ~worker:id)
          done;
          loop ~first:false
        end
      in
      loop ~first:true
    in
    (* Each helper's outcome, published under [m]: the helper's writes
       to [results] happen before its [pending] decrement, which
       happens before the caller reads [pending] = 0. *)
    let m = Mutex.create () and c = Condition.create () in
    let pending = ref (d - 1) and joined_exn = ref None in
    let report outcome =
      Mutex.lock m;
      (match outcome with
      | Ok () | Error (Mj_failpoint.Failpoint.Injected _) ->
          (* An injected worker kill degrades gracefully: the dead
             worker's claimed tasks are re-run serially below. *)
          ()
      | Error e -> if !joined_exn = None then joined_exn := Some e);
      decr pending;
      Condition.signal c;
      Mutex.unlock m
    in
    for k = 1 to d - 1 do
      (* A domain the runtime cannot spawn is a worker short, not an
         error: the other workers drain the shared counter. *)
      try
        hand_off (fun h ->
            let outcome = try Ok (worker ~id:k ()) with e -> Error e in
            park h;
            report outcome)
      with Failure _ -> report (Ok ())
    done;
    let self_exn = (try worker ~id:0 (); None with e -> Some e) in
    Mutex.lock m;
    while !pending > 0 do
      Condition.wait c m
    done;
    let joined_exn = !joined_exn in
    Mutex.unlock m;
    (match self_exn, joined_exn with
    | Some e, _ | None, Some e -> raise e
    | None, None -> ());
    (* Serial fallback: finish any task a killed worker claimed but
       never completed.  On a healthy run every slot is already filled
       and this pass is a no-op scan. *)
    Array.iteri
      (fun i slot ->
        if slot = None then results.(i) <- Some (tasks.(i) ~worker:0))
      results;
    Array.map (function Some v -> v | None -> assert false) results
  end

let run ?domains ?chunk tasks =
  run_w ?domains ?chunk (Array.map (fun task ~worker:_ -> task ()) tasks)

let run_traced ?(obs = Mj_obs.Obs.noop) ?domains ?chunk tasks =
  if not (Mj_obs.Obs.enabled obs) then
    run ?domains ?chunk (Array.map (fun task () -> task Mj_obs.Obs.noop) tasks)
  else begin
    (* Surface a clamp on this very run as a sink counter, mirroring the
       process-wide [clamp_events] total. *)
    let requested =
      match domains with Some d -> max 1 d | None -> default_domains ()
    in
    if requested > cores && Array.length tasks > cores then
      Mj_obs.Obs.add obs "pool.domains_clamped" 1;
    (* One child sink per TASK, not per worker: merging in task-index
       order then yields the same span tree at any domain count — only
       the lane attribute (which worker ran the task) varies. *)
    let children = Array.map (fun _ -> Mj_obs.Obs.fork obs) tasks in
    (* Merge even when a task raises: [run_w] joins every spawned
       domain before re-raising, so by the time the exception reaches
       us no worker is still writing into a child sink.  Without the
       protect, one failing task silently dropped the spans and lane
       attrs of every task that had already completed — exactly the
       trace a crash post-mortem needs.  Children of tasks that never
       started are empty forks and merge as no-ops, so the merged
       prefix stays deterministic at any domain count. *)
    let merge () =
      Array.iter (fun child -> Mj_obs.Obs.merge_child obs child) children
    in
    let results =
      try
        run_w ?domains ?chunk
          (Array.mapi
             (fun i task ~worker ->
               let child = children.(i) in
               Mj_obs.Obs.set_lane child worker;
               task child)
             tasks)
      with e ->
        merge ();
        raise e
    in
    merge ();
    results
  end

let init ?domains n f = run ?domains (Array.init n (fun i -> fun () -> f i))

let trials ?domains samples ~salt f =
  init ?domains samples (fun i ->
      let seed = i + 1 in
      f seed (Random.State.make (Array.append [| seed |] salt)))

(* Unified tracing and metrics.

   The design pivots on one constraint: the zero-instrumentation path
   must cost nothing.  A sink is either [Noop] — every operation is a
   single pattern match, counters are plain mutable records bumped in
   place — or [Active], which accumulates a span tree and a metric
   registry for the exporters.  Hot loops grab counter handles once and
   mutate a record field per event, exactly what the engine's old
   ad-hoc [counters] record did.

   Histograms are log-bucketed with a fixed global layout (16 linear
   sub-buckets per power of two), so any two histograms merge exactly by
   bucket-wise addition: merging per-domain shards is associative and
   commutative, and quantiles of a merge equal quantiles of the shards
   merged in any grouping.  Relative quantile error is bounded by the
   sub-bucket width, 1/16 ≈ 6.25%. *)

(* ------------------------------------------------------------------ *)
(* Metrics: named counters and histograms in a registry                 *)
(* ------------------------------------------------------------------ *)

type counter = { cname : string; mutable value : int }

(* Bucket layout: index 0 holds v <= 0 (and subnormal underflow), the
   last index holds overflow beyond 2^max_exp; between them, exponent
   slot s covers [2^s, 2^(s+1)) split into 16 linear sub-buckets.  The
   layout is a compile-time constant — never serialized — so merges
   across sinks and domains are always bucket-for-bucket. *)
let sub_count = 16
let min_exp = -40 (* 2^-40 s ≈ 0.9 ps: below any duration we time *)
let max_exp = 50 (* 2^50 ≈ 1.1e15: above any count we track *)
let nbuckets = ((max_exp - min_exp) * sub_count) + 2
let overflow_bucket = nbuckets - 1

let bucket_of_value v =
  if not (v > 0.0) then 0 (* negatives, zero and NaN share bucket 0 *)
  else
    let m, e = Float.frexp v in
    (* v = m * 2^e with m in [0.5, 1), i.e. v in [2^(e-1), 2^e). *)
    let s = e - 1 in
    if s < min_exp then 0
    else if s >= max_exp then overflow_bucket
    else
      let sub = int_of_float ((m -. 0.5) *. 2.0 *. float_of_int sub_count) in
      let sub = if sub < 0 then 0 else if sub >= sub_count then sub_count - 1 else sub in
      1 + ((s - min_exp) * sub_count) + sub

let bucket_upper idx =
  if idx = 0 then 0.0
  else if idx >= overflow_bucket then infinity
  else
    let i = idx - 1 in
    let s = (i / sub_count) + min_exp in
    let sub = i mod sub_count in
    Float.ldexp (0.5 +. (float_of_int (sub + 1) /. (2.0 *. float_of_int sub_count))) (s + 1)

type histogram = {
  hname : string;
  mutable hcount : int;
  mutable hsum : float;
  mutable hmin : float;
  mutable hmax : float;
  buckets : int array; (* fixed layout, length [nbuckets] *)
}

type histo_summary = {
  count : int;
  sum : float;
  min : float;
  max : float;
  p50 : float;
  p90 : float;
  p95 : float;
  p99 : float;
}

type registry = {
  ctbl : (string, counter) Hashtbl.t;
  mutable crev : counter list; (* reverse registration order *)
  htbl : (string, histogram) Hashtbl.t;
  mutable hrev : histogram list;
}

let registry () =
  { ctbl = Hashtbl.create 16; crev = []; htbl = Hashtbl.create 8; hrev = [] }

let reg_counter reg name =
  match Hashtbl.find_opt reg.ctbl name with
  | Some c -> c
  | None ->
      let c = { cname = name; value = 0 } in
      Hashtbl.add reg.ctbl name c;
      reg.crev <- c :: reg.crev;
      c

let reg_histogram reg name =
  match Hashtbl.find_opt reg.htbl name with
  | Some h -> h
  | None ->
      let h =
        { hname = name; hcount = 0; hsum = 0.0; hmin = infinity;
          hmax = neg_infinity; buckets = Array.make nbuckets 0 }
      in
      Hashtbl.add reg.htbl name h;
      reg.hrev <- h :: reg.hrev;
      h

let incr c n = c.value <- c.value + n
let record_max c n = if n > c.value then c.value <- n
let value c = c.value

let observe h v =
  h.hcount <- h.hcount + 1;
  h.hsum <- h.hsum +. v;
  if v < h.hmin then h.hmin <- v;
  if v > h.hmax then h.hmax <- v;
  let b = bucket_of_value v in
  h.buckets.(b) <- h.buckets.(b) + 1

let quantile h q =
  if h.hcount = 0 then 0.0
  else begin
    (* Nearest-rank over cumulative bucket counts, then report the
       bucket's upper bound clamped to the observed [hmin, hmax] — so a
       single-valued histogram reports that value exactly and every
       quantile stays within one sub-bucket (≤ 6.25%) of the true one. *)
    let rank =
      let r = int_of_float (Float.ceil (q *. float_of_int h.hcount)) in
      if r < 1 then 1 else if r > h.hcount then h.hcount else r
    in
    let idx = ref overflow_bucket in
    let cum = ref 0 in
    (try
       for i = 0 to nbuckets - 1 do
         cum := !cum + h.buckets.(i);
         if !cum >= rank then begin
           idx := i;
           raise Exit
         end
       done
     with Exit -> ());
    Float.min (Float.max (bucket_upper !idx) h.hmin) h.hmax
  end

let summary h =
  {
    count = h.hcount;
    sum = h.hsum;
    min = h.hmin;
    max = h.hmax;
    p50 = quantile h 0.50;
    p90 = quantile h 0.90;
    p95 = quantile h 0.95;
    p99 = quantile h 0.99;
  }

let histo_merge_into dst src =
  dst.hcount <- dst.hcount + src.hcount;
  dst.hsum <- dst.hsum +. src.hsum;
  if src.hmin < dst.hmin then dst.hmin <- src.hmin;
  if src.hmax > dst.hmax then dst.hmax <- src.hmax;
  for i = 0 to nbuckets - 1 do
    dst.buckets.(i) <- dst.buckets.(i) + src.buckets.(i)
  done

let counter_list reg = List.rev_map (fun c -> (c.cname, c.value)) reg.crev
let histogram_list reg = List.rev_map (fun h -> (h.hname, summary h)) reg.hrev

(* ------------------------------------------------------------------ *)
(* Clocks and GC accounting                                             *)
(* ------------------------------------------------------------------ *)

(* CLOCK_MONOTONIC via the bechamel C stub — [Unix.gettimeofday] jumps
   under NTP slew and breaks span durations; this one cannot. *)
let monotonic_time () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

type gc_mark = {
  g_minor : float;
  g_promoted : float;
  g_major : float;
  g_cminor : int;
  g_cmajor : int;
}

let gc_mark () =
  let s = Gc.quick_stat () in
  {
    (* [quick_stat]'s [minor_words] is only refreshed at collection
       boundaries on OCaml 5; [Gc.minor_words] reads the live
       allocation pointer, so short spans still see their words. *)
    g_minor = Gc.minor_words ();
    g_promoted = s.Gc.promoted_words;
    g_major = s.Gc.major_words;
    g_cminor = s.Gc.minor_collections;
    g_cmajor = s.Gc.major_collections;
  }

let gc_delta a b =
  {
    g_minor = b.g_minor -. a.g_minor;
    g_promoted = b.g_promoted -. a.g_promoted;
    g_major = b.g_major -. a.g_major;
    g_cminor = b.g_cminor - a.g_cminor;
    g_cmajor = b.g_cmajor - a.g_cmajor;
  }

let words f = int_of_float f

let gc_attrs d =
  [
    ("gc.minor_words", Json.int (words d.g_minor));
    ("gc.promoted_words", Json.int (words d.g_promoted));
    ("gc.major_words", Json.int (words d.g_major));
    ("gc.minor_collections", Json.int d.g_cminor);
    ("gc.major_collections", Json.int d.g_cmajor);
  ]

(* ------------------------------------------------------------------ *)
(* Spans                                                                *)
(* ------------------------------------------------------------------ *)

type span_tree = {
  name : string;
  start : float; (* seconds since the sink was created *)
  duration : float;
  attrs : (string * Json.t) list;
  children : span_tree list;
}

(* Open spans are accumulated mutably and normalized by [trace]. *)
type open_span = {
  oname : string;
  ostart : float;
  mutable ostop : float;
  mutable oattrs : (string * Json.t) list; (* reverse order *)
  mutable okids : open_span list;          (* reverse order *)
  ogc : gc_mark option;
}

type active = {
  clock : unit -> float;
  epoch : float;
  gc : bool;
  mutable lane : int; (* worker lane set by Pool.run_traced; -1 = none *)
  mutable stack : open_span list; (* innermost first *)
  mutable roots : open_span list; (* reverse completion order *)
  reg : registry;
}

type sink = Noop | Active of active

let noop = Noop

let make ?(clock = monotonic_time) ?(gc = true) () =
  Active
    { clock; epoch = clock (); gc; lane = -1; stack = []; roots = [];
      reg = registry () }

let enabled = function Noop -> false | Active _ -> true

let span t ?(attrs = []) name f =
  match t with
  | Noop -> f ()
  | Active a ->
      let s =
        { oname = name; ostart = a.clock () -. a.epoch; ostop = nan;
          oattrs = List.rev attrs; okids = [];
          ogc = (if a.gc then Some (gc_mark ()) else None) }
      in
      a.stack <- s :: a.stack;
      let finish () =
        s.ostop <- a.clock () -. a.epoch;
        (match s.ogc with
        | None -> ()
        | Some m ->
            let d = gc_delta m (gc_mark ()) in
            s.oattrs <- List.rev_append (gc_attrs d) s.oattrs;
            (* Fold root-span deltas — they cover the whole traced
               region — into sink counters, once, at root close. *)
            if (match a.stack with [ top ] -> top == s | _ -> false) then begin
              incr (reg_counter a.reg "gc.minor_words") (words d.g_minor);
              incr (reg_counter a.reg "gc.promoted_words") (words d.g_promoted);
              incr (reg_counter a.reg "gc.major_words") (words d.g_major);
              incr (reg_counter a.reg "gc.minor_collections") d.g_cminor;
              incr (reg_counter a.reg "gc.major_collections") d.g_cmajor
            end);
        observe
          (reg_histogram a.reg ("span." ^ name ^ ".ms"))
          (Float.max 0.0 (s.ostop -. s.ostart) *. 1e3);
        match a.stack with
        | top :: rest when top == s -> (
            a.stack <- rest;
            match rest with
            | parent :: _ -> parent.okids <- s :: parent.okids
            | [] -> a.roots <- s :: a.roots)
        | _ ->
            (* Unbalanced nesting can only happen if a callee captured
               the sink and closed spans out of order; drop to the
               matching frame rather than corrupting the tree. *)
            a.stack <- List.filter (fun o -> not (o == s)) a.stack;
            if a.stack = [] then a.roots <- s :: a.roots
      in
      (match f () with
      | v ->
          finish ();
          v
      | exception e ->
          finish ();
          raise e)

let set_attr t key v =
  match t with
  | Noop -> ()
  | Active a -> (
      match a.stack with
      | s :: _ -> s.oattrs <- (key, v) :: s.oattrs
      | [] -> ())

let event t ?(attrs = []) name =
  match t with
  | Noop -> ()
  | Active a -> (
      let now = a.clock () -. a.epoch in
      let s =
        { oname = name; ostart = now; ostop = now; oattrs = List.rev attrs;
          okids = []; ogc = None }
      in
      match a.stack with
      | parent :: _ -> parent.okids <- s :: parent.okids
      | [] -> a.roots <- s :: a.roots)

(* Sink-level metrics.  [counter] hands hot loops a handle: for a noop
   sink the handle is one shared dummy record — bumped freely, never
   read, and (unlike a fresh record per call) allocation-free. *)

let noop_counter = { cname = "noop"; value = 0 }

let noop_histogram =
  { hname = "noop"; hcount = 0; hsum = 0.0; hmin = infinity;
    hmax = neg_infinity; buckets = Array.make nbuckets 0 }

let counter t name =
  match t with Noop -> noop_counter | Active a -> reg_counter a.reg name

let histogram t name =
  match t with Noop -> noop_histogram | Active a -> reg_histogram a.reg name

let add t name n =
  match t with Noop -> () | Active a -> incr (reg_counter a.reg name) n

let merge_registry t reg =
  match t with
  | Noop -> ()
  | Active a ->
      List.iter
        (fun c -> incr (reg_counter a.reg c.cname) c.value)
        (List.rev reg.crev);
      List.iter
        (fun h -> histo_merge_into (reg_histogram a.reg h.hname) h)
        (List.rev reg.hrev)

let counters = function Noop -> [] | Active a -> counter_list a.reg
let histograms = function Noop -> [] | Active a -> histogram_list a.reg

(* ------------------------------------------------------------------ *)
(* Per-domain child sinks                                               *)
(* ------------------------------------------------------------------ *)

let fork t =
  match t with
  | Noop -> Noop
  | Active a ->
      (* Same epoch and clock source, so child timestamps land on the
         parent's timeline; fresh span state and registry, so a worker
         domain never touches parent mutables. *)
      Active
        { clock = a.clock; epoch = a.epoch; gc = a.gc; lane = -1;
          stack = []; roots = []; reg = registry () }

let set_lane t l = match t with Noop -> () | Active a -> a.lane <- l
let lane t = match t with Noop -> -1 | Active a -> a.lane

let merge_child t child =
  match (t, child) with
  | Noop, _ | _, Noop -> ()
  | Active p, Active c ->
      let roots = List.rev c.roots in
      if c.lane >= 0 then
        List.iter
          (fun r -> r.oattrs <- ("domain", Json.int c.lane) :: r.oattrs)
          roots;
      (match p.stack with
      | s :: _ -> List.iter (fun r -> s.okids <- r :: s.okids) roots
      | [] -> List.iter (fun r -> p.roots <- r :: p.roots) roots);
      merge_registry t c.reg

let rec normalize o =
  {
    name = o.oname;
    start = o.ostart;
    duration =
      (if Float.is_nan o.ostop then 0.0 else Float.max 0.0 (o.ostop -. o.ostart));
    attrs = List.rev o.oattrs;
    children = List.rev_map normalize o.okids;
  }

let trace = function
  | Noop -> []
  | Active a ->
      (* Completed roots in start order; any span still open is
         reported as-is with a zero duration. *)
      let open_roots =
        match List.rev a.stack with outermost :: _ -> [ outermost ] | [] -> []
      in
      List.rev_map normalize a.roots @ List.map normalize open_roots

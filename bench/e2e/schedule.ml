(* The request streams of the serve workloads.

   Everything the daemon sees is generated here from the workload seed:
   which request comes at each position of the stream.  Request [i]
   depends only on [(seed, i)], so a stream is extended on demand for as
   long as the timed window lasts, without generating it up front. *)

module Protocol = Mj_serve.Protocol
module Json = Mj_obs.Json

type kind = {
  shape : string;
  n : int;
  regime : string;
  policy : string;
  plane : string;
}

type spec = {
  kinds : kind array;
  rows : int;
  domain : int;
  instances : int;  (** databases per kind, each from its own data seed *)
  invalidate_every : int option;
      (** every [m]-th request is an [invalidate] op *)
}

type request = Query of int * int  (** kind index, instance *) | Invalidate

(* The databases are a fixed set, the same for every run seed: the
   seed draws the order and timing of the requests over them.  Data
   drawn per seed would make a run's cost depend on which databases it
   happened to get, a spread no change to the program could remove. *)
let workload spec (k, instance) =
  let kind = spec.kinds.(k) in
  {
    Protocol.shape = kind.shape;
    n = kind.n;
    rows = spec.rows;
    domain = spec.domain;
    regime = kind.regime;
    seed = instance;
  }

(* Each block of [|kinds|] consecutive requests holds every kind once,
   in a seeded order, so every run sends the same mix; the instance of
   each request is drawn uniformly. *)
let request spec ~seed i =
  match spec.invalidate_every with
  | Some m when (i + 1) mod m = 0 -> Invalidate
  | _ ->
      let nk = Array.length spec.kinds in
      let order = Array.init nk Fun.id in
      let block = Random.State.make [| seed; i / nk; -2 |] in
      for j = nk - 1 downto 1 do
        let r = Random.State.int block (j + 1) in
        let x = order.(j) in
        order.(j) <- order.(r);
        order.(r) <- x
      done;
      Query
        ( order.(i mod nk),
          Random.State.int (Random.State.make [| seed; i |]) spec.instances )

let line spec ~id = function
  | Invalidate ->
      Json.to_string
        (Json.Obj [ ("id", Json.int id); ("op", Json.str "invalidate") ])
  | Query (k, instance) ->
      let w = workload spec (k, instance) in
      let kind = spec.kinds.(k) in
      Json.to_string
        (Json.Obj
           [
             ("id", Json.int id);
             ("op", Json.str "query");
             ("shape", Json.str w.Protocol.shape);
             ("n", Json.int w.Protocol.n);
             ("rows", Json.int w.Protocol.rows);
             ("domain", Json.int w.Protocol.domain);
             ("regime", Json.str w.Protocol.regime);
             ("seed", Json.int w.Protocol.seed);
             ("policy", Json.str kind.policy);
             ("plane", Json.str kind.plane);
           ])

(* Every (kind, instance) key of the stream, for priming. *)
let keys spec =
  List.concat_map
    (fun k -> List.init spec.instances (fun i -> (k, i)))
    (List.init (Array.length spec.kinds) Fun.id)

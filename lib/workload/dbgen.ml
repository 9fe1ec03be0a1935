open Mj_relation
open Mj_hypergraph

(* Blocks are drawn in increasing scheme order, one relation after the
   other, so the RNG sequence is a function of the scheme set alone. *)
let populate (gen : Scheme.t -> Coded.block) d =
  Database.of_coded
    (Coded.of_ints (List.map (fun s -> (s, gen s)) (Scheme.Set.elements d)))

let superkey_db ~rng ~rows ~domain d =
  populate (Datagen.injective ~rng ~rows ~domain) d

let uniform_db ~rng ~rows ~domain d =
  populate (Datagen.with_spine Datagen.uniform ~rng ~rows ~domain) d

let skewed_db ~rng ~rows ~domain ~skew d =
  populate
    (Datagen.with_spine
       (fun ~rng ~rows ~domain scheme ->
         Datagen.zipf ~rng ~rows ~domain ~skew scheme)
       ~rng ~rows ~domain)
    d

let consistent_acyclic_db ~rng ~rows ~domain d =
  if not (Gyo.is_alpha_acyclic d) then
    invalid_arg "Dbgen.consistent_acyclic_db: scheme is not alpha-acyclic";
  let db = uniform_db ~rng ~rows ~domain d in
  (* The naive full reducer reaches the full reduction on acyclic
     schemes; the spine tuple survives because it is in every relation,
     so the reduced states stay non-empty and pairwise consistent. *)
  Consistency.semijoin_reduce db

let regimes = [ "uniform"; "skewed"; "superkey"; "consistent" ]

let thm_regimes =
  [
    ("superkey", fun ~rng d -> superkey_db ~rng ~rows:5 ~domain:9 d);
    ("uniform", fun ~rng d -> uniform_db ~rng ~rows:5 ~domain:3 d);
    ("skewed", fun ~rng d -> skewed_db ~rng ~rows:5 ~domain:4 ~skew:1.2 d);
  ]

let gamma_regimes =
  [
    ("superkey", fun ~rng d -> superkey_db ~rng ~rows:6 ~domain:10 d);
    ("uniform", fun ~rng d -> uniform_db ~rng ~rows:6 ~domain:3 d);
    ("skewed", fun ~rng d -> skewed_db ~rng ~rows:6 ~domain:4 ~skew:1.5 d);
  ]

let shapes =
  [
    ("chain", fun ~rng:_ n -> Querygraph.chain n);
    ("cycle", fun ~rng:_ n -> Querygraph.cycle n);
    ("star", fun ~rng:_ n -> Querygraph.star n);
    ("path", fun ~rng:_ n -> Querygraph.path n);
    ("snowflake", fun ~rng:_ n -> Querygraph.snowflake ~fanout:2 n);
    ("clique", fun ~rng:_ n -> Querygraph.clique n);
    ("random", fun ~rng n -> Querygraph.random ~extra_edge_prob:0.3 ~rng n);
  ]

let of_regime ~regime ~rng ~rows ~domain d =
  match regime with
  | "superkey" -> superkey_db ~rng ~rows ~domain d
  | "skewed" -> skewed_db ~rng ~rows ~domain ~skew:1.2 d
  | "consistent" -> consistent_acyclic_db ~rng ~rows ~domain d
  | "uniform" -> uniform_db ~rng ~rows ~domain d
  | s -> invalid_arg (Printf.sprintf "unknown regime %s" s)

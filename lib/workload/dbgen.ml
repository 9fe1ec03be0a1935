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

let of_regime ~regime ~rng ~rows ~domain d =
  match regime with
  | "superkey" -> superkey_db ~rng ~rows ~domain d
  | "skewed" -> skewed_db ~rng ~rows ~domain ~skew:1.2 d
  | "consistent" -> consistent_acyclic_db ~rng ~rows ~domain d
  | "uniform" -> uniform_db ~rng ~rows ~domain d
  | s -> invalid_arg (Printf.sprintf "unknown regime %s" s)

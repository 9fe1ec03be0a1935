(* Acyclic databases, consistency, and the Section 5 discussion.

   Generates a chain-shaped database, full-reduces it with semijoins,
   evaluates it with Yannakakis's algorithm on the engine (a
   [Semijoin_program] over GYO's ear tree), and compares the tau of
   Yannakakis's linear strategy with the exact tau-optimum — the
   paper's open question, answered empirically on this instance.

   Run with: dune exec examples/acyclic_pipeline.exe *)

open Mj_relation
open Mj_hypergraph
open Multijoin
open Mj_engine

let () =
  let rng = Random.State.make [| 2024 |] in
  let d = Querygraph.chain 5 in
  let db = Mj_workload.Dbgen.uniform_db ~rng ~rows:8 ~domain:4 d in

  Format.printf "Chain database: %a@." Database.pp_brief db;
  Format.printf "alpha-acyclic: %b, gamma-acyclic: %b@."
    (Gyo.is_alpha_acyclic d)
    (Acyclicity.is_gamma_acyclic d);

  (* Dangling tuples before reduction. *)
  let dangling = Consistency.dangling_tuples db in
  Format.printf "Dangling tuples per relation before reduction:@.";
  List.iter
    (fun (s, k) -> Format.printf "  %-6s %d@." (Scheme.to_string s) k)
    dangling;

  (* Full reduction: semijoins until no relation shrinks. *)
  let reduced = Consistency.semijoin_reduce db in
  Format.printf "After full reduction: %a@." Database.pp_brief reduced;
  Format.printf "pairwise consistent: %b, globally consistent: %b@."
    (Consistency.pairwise_consistent reduced)
    (Consistency.globally_consistent reduced);
  Format.printf "C4 holds on the reduced database: %b@.@."
    (Conditions.holds_c4 reduced);

  (* Yannakakis's algorithm over GYO's ear tree, run by the engine:
     both semijoin sweeps, then the joins in reverse ear order.  τ
     counts the join phase only. *)
  let plan =
    match Gyo.rooted_ear_tree d with
    | None -> assert false
    | Some rt -> Physical.Semijoin_program rt
  in
  let result, stats =
    Engine.execute_plan (Engine.Config.make ~plane:Engine.Seed ()) db plan
  in
  Format.printf "Yannakakis result = plain join: %b (%d tuples)@.@."
    (Relation.equal result (Database.join_all db))
    (Relation.cardinality result);

  (* The open question, on this instance: is Yannakakis's strategy
     tau-optimal after reduction? *)
  let s = Physical.strategy_of plan in
  Format.printf "Yannakakis's strategy: %a@." Strategy.pp s;
  let best = Optimal.optimum_exn reduced in
  Format.printf "tau(Yannakakis, reduced db) = %d@."
    stats.Engine.tuples_generated;
  Format.printf "tau-optimum of the reduced db = %d (%a)@." best.cost
    Strategy.pp best.strategy;
  Format.printf "monotone increasing (C4 at work): %b@."
    (Monotone.is_monotone_increasing reduced s);

  (* On consistent acyclic data every CP-free strategy is monotone
     increasing — the C4 phenomenon of Section 5. *)
  let consistent =
    Mj_workload.Dbgen.consistent_acyclic_db ~rng ~rows:6 ~domain:3
      (Querygraph.star 4)
  in
  Format.printf
    "@.On a consistent star database, every CP-free strategy is monotone \
     increasing: %b@."
    (Monotone.all_cp_free_strategies_monotone_increasing consistent)

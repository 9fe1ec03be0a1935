(** Alternative cost models.

    The paper deliberately measures a strategy by τ — tuples generated —
    arguing that detailed I/O formulas are fragile under technological
    change (Section 1).  This module supplies the detailed models τ
    abstracts from, so the bench harness can measure how robust
    τ-optimality is:

    - [Tuples]: the paper's τ (step cost = output size);
    - [Cout_inclusive]: output size plus both input sizes — charging for
      reading the operands, the common "C_out + inputs" textbook model;
    - [Nested_loop_io]: page-based loop join, [⌈L/p⌉ + ⌈L/p⌉·⌈R/p⌉] page
      reads per step plus the output;
    - [Hash_cpu]: build + probe + output, [L + R + out].

    Every model's step cost depends only on the three cardinalities, so
    the same subset DP yields exact optima under each: {!optimum} runs
    {!Multijoin.Optimal}'s split orders on the {!Multijoin.Subset_dp}
    core with the model's {!step_cost} as the per-split price. *)

open Mj_hypergraph
open Multijoin

type t =
  | Tuples
  | Cout_inclusive
  | Nested_loop_io of int  (** page size, ≥ 1 *)
  | Hash_cpu

val name : t -> string

val step_cost : t -> left:int -> right:int -> out:int -> int
(** Cost of one join step given its input and output cardinalities.
    @raise Invalid_argument on a non-positive page size. *)

val strategy_cost : t -> Estimate.oracle -> Strategy.t -> int
(** Total cost of a strategy: sum of {!step_cost} over its steps, with
    cardinalities supplied by the oracle. *)

val optimum :
  ?subspace:Enumerate.subspace ->
  model:t ->
  oracle:Estimate.oracle ->
  Hypergraph.t ->
  Optimal.result option
(** Exact optimum under the model, by the same subset DP and the same
    tie rule as {!Multijoin.Optimal.optimum_by}: under [Tuples] it is
    {!Multijoin.Optimal.optimum_with_oracle}.  [None] only for an empty
    subspace. *)

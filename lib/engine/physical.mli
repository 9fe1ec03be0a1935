(** Physical join plans.

    Section 1 motivates linear strategies by implementation concerns:
    they "can be programmed as nested loops, can take advantage of
    existing indices, and can use pipelining".  This module gives the
    strategy an executable form: a physical plan fixes how each step of
    a {!Multijoin.Strategy.t} runs, and {!Frame_engine} runs it (a
    linear strategy can also stream through {!Exec.execute_pipelined}).

    A binary step ([Join]) is a hash join: the {e right}
    child is built into a hash table on the common attributes and the
    left child probes it.  τ counts the tuples a strategy generates, so
    the per-step join algorithm could change the time a plan takes but
    never its result, its τ or its step log; the executor keeps one
    binary kernel.  No kernel takes a base relation's index from an
    earlier execution, so Section 1's "existing indices" stay an
    argument about linear strategies, not an operator.

    Beyond the binary join, a plan may contain one n-ary
    [Generic_join] node: the worst-case-optimal join of a (typically
    cyclic) sub-hypergraph, evaluated attribute-by-attribute in a fixed
    elimination order with no binary intermediates — see
    {!Mj_relation.Frame.generic_join} and [Planner.Wcoj].

    α-acyclic queries get their own pair of nodes: [Semijoin_program]
    runs Yannakakis's algorithm over a rooted join tree (full semijoin
    reduction, then the joins in root-outward order — τ is exactly the
    join phase's output, semijoins generate nothing under the paper's
    measure), and [Ranked_enumerate] streams only the [k]
    lexicographically least result tuples out of the reduced tree — see
    [Planner.Yannakakis] and {!Mj_relation.Frame.topk}. *)

open Mj_relation
open Mj_hypergraph
open Multijoin

type t =
  | Scan of Scheme.t
  | Join of t * t
      (** A binary hash join: the right child builds, the left
          probes. *)
  | Generic_join of Scheme.t list * Attr.t list
      (** [(relations, elimination order)]: the worst-case-optimal join
          of the listed base relations, binding attributes in the given
          order.  The order is a permutation of the relations' attribute
          union, fixed at plan time so execution is deterministic. *)
  | Semijoin_program of Jointree.rooted
      (** Yannakakis over the rooted join tree: leaf-to-root then
          root-to-leaf semijoin sweeps over the tree's base relations,
          then the left-deep join in root-outward ({!Jointree.join_order})
          order.  Only the join phase contributes τ entries. *)
  | Ranked_enumerate of Jointree.rooted * int
      (** The same reduction, then the [k] lexicographically least
          tuples (by {!Mj_relation.Tuple.compare}) of the result,
          enumerated without materializing the full join. *)

val of_strategy : Strategy.t -> t
(** One [Join] per step of the strategy, one [Scan] per leaf. *)

val strategy_of : t -> Strategy.t
(** The strategy a plan executes.  A [Generic_join] has no binary structure to
    forget; it maps to the left-deep chain over its relations (the
    strategy shadow the planner's τ comparisons are made against), and a
    [Semijoin_program]/[Ranked_enumerate] to the left-deep chain over
    its {!Jointree.join_order} — the order of its join phase, which runs
    on the semijoin-reduced relations: [Cost.step_costs] of this
    shadow on the unreduced database bounds the plan's step log from
    above and differs from it wherever a tuple dangles.
    @raise Invalid_argument if the plan violates (S3). *)

val schemes : t -> Scheme.Set.t

val pp : Format.formatter -> t -> unit
(** Paper notation with each binary step printed as [(l hash r)]. *)

val to_string : t -> string

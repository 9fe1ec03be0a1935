(** Executable validators for the paper's three theorems.

    Each validator checks, on a concrete database, both the theorem's
    hypotheses and its conclusion, classifying the outcome:

    - [Holds]: hypotheses and conclusion both true;
    - [Vacuous]: some hypothesis fails (the theorem says nothing);
    - [Refuted]: hypotheses hold but the conclusion fails — this would
      contradict the paper and is what the test suite asserts never
      happens.

    A conclusion that compares a τ sum saturated at [max_int] is
    undecided: the theorem reads [Vacuous "τ saturates"] whatever its
    hypotheses, its conclusion reads [false], and {!pp_report} prints
    it as undecided.

    A fourth piece of information is recorded for the necessity
    examples: whether the conclusion happens to hold anyway when the
    hypotheses fail (Examples 3–5 are engineered so it does not). *)

open Mj_relation

type status =
  | Holds
  | Vacuous of string  (** which hypothesis failed *)
  | Refuted

val pp_status : Format.formatter -> status -> unit

type report = {
  connected : bool;
  nonempty_result : bool;  (** [R_D ≠ ∅] *)
  conditions : Conditions.summary;
  min_all : int;                     (** τ of the global optimum *)
  min_linear : int;
  min_cp_free : int;
  min_linear_cp_free : int option;   (** [None] iff the subspace is empty *)
  theorem1 : status;
  theorem1_conclusion : bool;
      (** every τ-optimum linear strategy avoids Cartesian products *)
  theorem2 : status;
  theorem2_conclusion : bool;  (** [min_cp_free = min_all] *)
  theorem3 : status;
  theorem3_conclusion : bool;  (** [min_linear_cp_free = Some min_all] *)
}

val verify : ?obs:Mj_obs.Obs.sink -> ?backend:Cost.Cache.backend -> Database.t -> report
(** Full verification by DP over sub-databases, with no strategy
    enumerated; exponential in [|D|], for databases of up to ~8
    relations.  One shared {!Cost.Cache} backs [R_D ≠ ∅], the condition
    checkers, the four optimum DPs and Theorem 1's decision
    ({!Optimal.linear_optima_cp_free}); pass [obs] to record its
    [cost.cache_hits] / [cost.cache_misses] counters.  [backend] selects
    how the cache counts (default: [Frame]; [Seed] materializes every
    mask's join); both produce identical
    reports. *)

val lemma5_consistent : Database.t -> bool
(** Lemma 5 sanity: if [R_D ≠ ∅] and C3 holds then C1 holds.  Returns
    [false] only on a counterexample to the lemma. *)

val pp_report : Format.formatter -> report -> unit

(** The paper's conditions C1, C1', C2, C3 and C4.

    Each condition quantifies over connected disjoint subsets of the
    database scheme and compares the sizes of joined sub-results.  Two
    procedures decide them:
    - {!summarize} and the [holds_*] functions decide all five on
      bitmasks ({!decide}): one pass over the masks, then one pass over
      the splits of each connected mask into two connected parts.
      [C1] and [C1'] reduce to pairs because [τ(R_E ⋈ R_E2)] is a
      product when [E2] is not linked to [E];
    - {!iter_triples} and {!iter_pairs} are the definitions, executed
      literally: they enumerate the quantified triples and pairs with
      their witnesses.  The [violations_*] functions, [mjoin
      conditions] and the tests read them, and the fuzzer compares
      the decision with them.
    Both are exponential in [|D|] and intended for the small databases
    of the examples, tests and statistical experiments; for large
    databases the conditions are {e established} semantically instead
    (see {!Semantic}).

    Throughout, [τ(R_E ⋈ R_E')] is the cardinality of the join of all
    base states of [E ∪ E'], read through one shared {!Cost.Cache}. *)

open Mj_relation

type triple_witness = {
  e : Scheme.Set.t;
  e1 : Scheme.Set.t;  (** linked to [e] *)
  e2 : Scheme.Set.t;  (** not linked to [e] *)
  tau_e_e1 : int;     (** [τ(R_E ⋈ R_E1)] *)
  tau_e_e2 : int;     (** [τ(R_E ⋈ R_E2)] *)
}
(** A configuration quantified over by C1/C1'; it is a {e violation} of
    C1 when [tau_e_e1 > tau_e_e2], and of C1' when [>=]. *)

type pair_witness = {
  p1 : Scheme.Set.t;
  p2 : Scheme.Set.t;  (** linked to [p1] *)
  tau_join : int;     (** [τ(R_E1 ⋈ R_E2)] *)
  tau_1 : int;        (** [τ(R_E1)] *)
  tau_2 : int;        (** [τ(R_E2)] *)
}
(** A configuration quantified over by C2/C3/C4. *)

val iter_triples : Cost.Cache.t -> (triple_witness -> bool) -> unit
(** The definitional enumeration behind C1/C1': every configuration of
    disjoint connected [E, E1, E2] with [E] linked to [E1] and not to
    [E2], each with its two τ values from the shared cache, until [f]
    returns [false].  Exposed so derived checkers (lemmas, monotone
    classes, the join-tree C4) can be validated against the literal
    definition — see [test/test_conditions.ml]. *)

val iter_pairs : Cost.Cache.t -> (pair_witness -> bool) -> unit
(** Likewise for C2/C3/C4: every pair of disjoint connected linked
    subsets. *)

val violations_c1 : ?limit:int -> Database.t -> triple_witness list
(** Witnesses violating C1 ([τ(R_E ⋈ R_E1) > τ(R_E ⋈ R_E2)]), at most
    [limit] of them (default: unbounded). *)

val violations_c1_strict : ?limit:int -> Database.t -> triple_witness list
(** Witnesses violating C1' ([>=] instead of [>]). *)

val violations_c2 : ?limit:int -> Database.t -> pair_witness list
(** C2 fails on a pair when the join is larger than {e both} sides. *)

val violations_c3 : ?limit:int -> Database.t -> pair_witness list
(** C3 fails when the join is larger than {e some} side. *)

val violations_c4 : ?limit:int -> Database.t -> pair_witness list
(** C4 (Section 5) fails when the join is smaller than some side. *)

type summary = {
  c1 : bool;
  c1_strict : bool;
  c2 : bool;
  c3 : bool;
  c4 : bool;
}

val decide : Mj_hypergraph.Bitdb.t -> (int -> int) -> summary
(** [decide u card] decides all five conditions over the universe [u],
    where [card m] is the cardinality of the join of a {e connected}
    mask [m] (read once per connected mask, never on another).  With
    [g x] the smallest [card] of a nonempty connected submask of [x],
    C1 holds iff [card (E ∪ E1) <= saturating_mul (card E) (g x)] for
    every disjoint, linked, connected pair [(E, E1)] whose
    [x = full ∖ (E ∪ E1 ∪ N(E))] is nonempty; C1' asks for [<].  The
    product saturates at [max_int], like {!Cost.Cache}'s product rule.
    Its arrays are dense over all [2^k] masks.
    @raise Invalid_argument ["subset DP: too many relations (max 22)"]
    beyond 22 relations. *)

val summarize : Database.t -> summary
(** All five conditions, decided on masks. *)

val summarize_cached : Cost.Cache.t -> summary
(** Same, against a caller-supplied {!Cost.Cache}: the theorem
    validators pass the cache they also run the optimum DPs on, so
    every sub-database is counted at most once across the whole
    verification. *)

val holds_c1 : Database.t -> bool
val holds_c1_strict : Database.t -> bool
val holds_c3 : Database.t -> bool
val holds_c4 : Database.t -> bool
(** Fields of {!summarize}. *)

val pp_summary : Format.formatter -> summary -> unit
val pp_triple_witness : Format.formatter -> triple_witness -> unit
val pp_pair_witness : Format.formatter -> pair_witness -> unit

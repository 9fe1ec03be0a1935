(** Condition-regime database generators.

    Each generator populates a database scheme (usually from
    {!Mj_hypergraph.Querygraph}) with data engineered so that a given
    condition of the paper holds — or is likely violated — by
    construction, providing the populations over which the theorem
    experiments run.  All guarantee [R_D ≠ ∅] via a spine tuple. *)

open Mj_relation
open Mj_hypergraph

val superkey_db :
  rng:Random.State.t -> rows:int -> domain:int -> Hypergraph.t -> Database.t
(** Every relation injective in every column, so all joins are on
    superkeys — the Section 4 hypothesis guaranteeing C3 (hence C1, C2).
    @raise Invalid_argument if [rows > domain]. *)

val uniform_db :
  rng:Random.State.t -> rows:int -> domain:int -> Hypergraph.t -> Database.t
(** Uniform independent data with a spine: no condition guaranteed —
    the adversarial population for the necessity experiments. *)

val skewed_db :
  rng:Random.State.t ->
  rows:int ->
  domain:int ->
  skew:float ->
  Hypergraph.t ->
  Database.t
(** Zipf-skewed data with a spine: joins blow up on hot values, the
    population on which linear-only search loses badly (the GAMMA
    observation). *)

val consistent_acyclic_db :
  rng:Random.State.t -> rows:int -> domain:int -> Hypergraph.t -> Database.t
(** For an α-acyclic scheme: uniform data, then fully semijoin-reduced,
    then re-seeded with the spine — pairwise consistent by construction.
    If the scheme is also γ-acyclic, the result satisfies the Section 5
    hypothesis for C4.
    @raise Invalid_argument if the scheme is not α-acyclic. *)

val regimes : string list
(** The regime names {!of_regime} accepts:
    [["uniform"; "skewed"; "superkey"; "consistent"]]. *)

val of_regime :
  regime:string ->
  rng:Random.State.t ->
  rows:int ->
  domain:int ->
  Hypergraph.t ->
  Database.t
(** The one regime table behind the CLI and the serve protocol:
    [superkey_db], [skewed_db] at skew 1.2, [consistent_acyclic_db] or
    [uniform_db].  The first three databases are born coded
    ({!Database.of_coded}) and build seed states only on demand; the
    consistent regime reduces seed states, so its result has those
    only.
    @raise Invalid_argument on an unknown regime. *)

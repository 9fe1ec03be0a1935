(** Random relation states.

    Deterministic given the [Random.State.t]; all experiments pass
    explicit seeds so every table in the bench harness is reproducible.

    The distributions deliberately avoid the uniformity-and-independence
    assumption the paper criticises: [zipf] produces the skew under which
    the heuristic subspaces go wrong, while [injective] produces the
    key-like data under which Section 4's semantic conditions hold.

    Generators write ints straight into a row-major code buffer (a
    {!Mj_relation.Coded.block}: columns in increasing attribute order,
    rows in draw order, duplicates kept); {!Mj_relation.Coded.of_ints}
    turns the blocks of a database into its coded form, with the set
    semantics of {!Mj_relation.Relation.make}.  No generator builds a
    tuple. *)

open Mj_relation

type gen =
  rng:Random.State.t -> rows:int -> domain:int -> Scheme.t -> Coded.block

val uniform : gen
(** [rows] rows with attribute values drawn uniformly from
    [0 .. domain-1], row-major (duplicates collapse once coded, so the
    relation can be smaller).
    @raise Invalid_argument if [rows < 0] or [domain < 1]. *)

val zipf :
  rng:Random.State.t ->
  rows:int ->
  domain:int ->
  skew:float ->
  Scheme.t ->
  Coded.block
(** Like {!uniform} but each value is drawn from a Zipf([skew])
    distribution over [0 .. domain-1]; [skew = 0.0] degenerates to
    uniform.  Heavier skew inflates join sizes on hot values. *)

val injective : gen
(** [rows] tuples in which every attribute column carries pairwise
    distinct values — hence {e every} non-empty subset of the scheme is
    a key.  When all relations of a database are generated this way,
    all joins are on superkeys, so the database satisfies C3
    (Section 4).
    @raise Invalid_argument if [rows > domain]. *)

val correlated :
  rng:Random.State.t ->
  rows:int ->
  domain:int ->
  noise:float ->
  Scheme.t ->
  Coded.block
(** Deliberately violates the independence assumption: the first
    attribute (in {!Attr} order) is uniform and every other attribute
    copies it, perturbed with probability [noise] to a uniform value.
    [noise = 1.0] degenerates to {!uniform}; [noise = 0.0] makes all
    columns identical.
    @raise Invalid_argument if [noise] is outside [0, 1]. *)

val with_spine : gen -> gen
(** Wraps a generator so the all-zeros tuple is always present.  Planting
    the same spine tuple in every relation guarantees [R_D ≠ ∅], which
    the theorems require. *)

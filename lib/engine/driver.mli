(** The backend-agnostic plan walker.

    Both data planes — {!Exec} over seed tuple lists and
    {!Frame_engine} over columnar frames — run plans through this one
    walker, so the span bookkeeping and the τ accounting exist once.  A
    data plane implements the {!PLANE} signature (how to scan a base
    relation, how to run one binary join step, how to count rows);
    {!Make} supplies the recursion over {!Physical.t}, the
    observability contract, and the per-step τ log.

    The observability contract, shared by every plane so the
    [mjoin explain] tree renderer works against any backend: one
    ["scan"] span per leaf and one ["join"] span per step, each carrying
    [scheme] and [rows] attributes, joins additionally [algo]; the whole
    run is wrapped in a root span named by the plane. *)

open Mj_relation

(** What a data plane must provide.  [item] is the plane's intermediate
    representation (seed: tuple list; frame: [Frame.t]). *)
module type PLANE = sig
  val name : string
  (** ["seed"] or ["frame"] — the value of the [--engine] flag. *)

  val root_span : string
  (** Name of the span wrapping the whole execution (seed:
      ["execute"], frame: ["execute-frame"]). *)

  type item
  type ctx
  (** Per-execution state: counters, caches, the encoded database. *)

  val scan : ctx -> Scheme.t -> item
  (** Fetch a base relation.
      @raise Invalid_argument if the scheme is not in the database. *)

  val join : ctx -> common:Attr.Set.t -> item -> item -> item
  (** One binary join step, [left ⋈ right] on the [common] attributes:
      the plane's one hash kernel (seed: build on [right], probe with
      [left]; frame: the columnar hash join).  Materializing execution
      makes τ kernel-independent, so results and step costs agree
      across planes. *)

  val generic_join :
    ctx -> schemes:Scheme.t list -> order:Attr.t list -> item
  (** One {!Physical.Generic_join} step: the worst-case-optimal join of
      the named base relations, binding attributes in [order].  Both
      planes must produce the canonical result relation (the frame plane
      runs the leapfrog kernel; the seed plane a reference
      sorted-intersection backtracker), so plans containing the node
      stay bit-identical across planes.  The driver wraps the step in a
      single ["join"] span with [algo = "wcoj"] and an [order]
      attribute, and the step contributes one τ entry: its output
      cardinality. *)

  val semijoin : ctx -> common:Attr.Set.t -> item -> item -> item
  (** [semijoin ctx ~common outer inner] is [outer ⋉ inner]: the rows of
      [outer] with at least one join partner in [inner].  Powers the
      {!Physical.Semijoin_program} reduction sweeps; never contributes
      to τ (a semijoin generates no tuples under the paper's measure). *)

  val ranked :
    ctx -> order:Attr.t list -> k:int -> (Scheme.t * item) list -> item
  (** The [k] lexicographically least tuples (by
      {!Mj_relation.Tuple.compare}; [order] is the sorted attributes of
      the union scheme) of the natural join of the given — already
      semijoin-reduced — items, enumerated without materializing the
      full join.  Both planes must stream the identical rows (frame:
      rank-space leapfrog {!Mj_relation.Frame.topk}; seed: the
      reference backtracker with an emission budget). *)

  val cardinality : item -> int
  val note_step : ctx -> int -> unit
  (** Called with each join step's output cardinality (for plane
      counters such as the seed peak-materialization tracker). *)

  val join_label : string
  (** The [algo] attribute of every binary ["join"] span (seed:
      ["hash"], frame: ["frame-hash"]). *)

  (** The finishers: what a caller makes of the root item once the
      walk is done.  Both see the rows in the same order and must agree
      with each other: [digest ctx s it = Relation.digest (to_relation
      ctx s it)] — the wire hash is computed on the plane's native
      result, never via a decode nobody reads. *)

  val to_relation : ctx -> Scheme.t -> item -> Relation.t
  val digest : ctx -> Scheme.t -> item -> int64
end

type step_log = {
  tuples_generated : int;  (** the paper's τ: sum of step output rows *)
  per_step : (Scheme.Set.t * int) list;  (** post-order, like [Cost.step_costs] *)
}

val scheme_key : Scheme.Set.t -> string
(** The canonical span attribute for a scheme set (shared with the
    explain renderer). *)

module Make (P : PLANE) : sig
  val walk :
    obs:Mj_obs.Obs.sink ->
    P.ctx ->
    Physical.t ->
    (Scheme.t * P.item) * step_log
  (** Execute the plan inside the plane's root span and return the
      root item with its output scheme, undecoded — the caller applies
      a finisher ({!PLANE.to_relation} or {!certify}). *)

  val certify :
    obs:Mj_obs.Obs.sink -> P.ctx -> Scheme.t * P.item -> int64
  (** [P.digest] of a root, inside a ["serve.certify"] span: the pass
      that certifies an answer, a named layer of every request the
      serve daemon times. *)
end

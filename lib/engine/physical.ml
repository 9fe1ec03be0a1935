open Mj_relation
open Mj_hypergraph
open Multijoin

type t =
  | Scan of Scheme.t
  | Join of t * t
  | Generic_join of Scheme.t list * Attr.t list
  | Semijoin_program of Jointree.rooted
  | Ranked_enumerate of Jointree.rooted * int

let rec of_strategy = function
  | Strategy.Leaf s -> Scan s
  | Strategy.Join n -> Join (of_strategy n.left, of_strategy n.right)

let rec strategy_of = function
  | Scan s -> Strategy.leaf s
  | Join (l, r) -> Strategy.join (strategy_of l) (strategy_of r)
  | Generic_join (ss, _) ->
      (* The node has no binary structure of its own; its strategy
         shadow is the left-deep chain over its relations — the τ
         comparisons in the planner read costs off this shadow. *)
      Strategy.left_deep ss
  | Semijoin_program rt | Ranked_enumerate (rt, _) ->
      (* The join phase is a left-deep chain in root-outward order over
         the semijoin-reduced relations, so priced on the unreduced
         database this shadow bounds the plan's τ from above (equal when
         no tuple dangles). *)
      Strategy.left_deep (Jointree.join_order rt)

let schemes p = Strategy.schemes (strategy_of p)

let rec pp fmt = function
  | Scan s -> Scheme.pp fmt s
  | Join (l, r) -> Format.fprintf fmt "(%a hash %a)" pp l pp r
  | Generic_join (ss, order) ->
      Format.fprintf fmt "(wcoj";
      List.iter (fun s -> Format.fprintf fmt " %a" Scheme.pp s) ss;
      Format.fprintf fmt " | %s)"
        (String.concat "," (List.map Attr.to_string order))
  | Semijoin_program rt -> pp_yann fmt "yann" rt
  | Ranked_enumerate (rt, k) ->
      pp_yann fmt (Printf.sprintf "topk %d" k) rt

and pp_yann fmt label rt =
  Format.fprintf fmt "(%s root=%a" label Scheme.pp rt.Jointree.root;
  List.iter
    (fun (ear, parent) ->
      Format.fprintf fmt " %a->%a" Scheme.pp ear Scheme.pp parent)
    rt.Jointree.elims;
  Format.fprintf fmt ")"

let to_string p = Format.asprintf "%a" pp p

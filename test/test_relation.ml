(* Tests for the relational substrate: attributes, tuples, relation states,
   the relational algebra, functional dependencies, the chase, and
   consistency.  Property tests use small random relations over a fixed
   attribute pool so that joins stay cheap. *)

open Mj_relation

let attr = Attr.make
let i = Value.int
let s = Value.str

(* ------------------------------------------------------------------ *)
(* Generators for property tests                                       *)
(* ------------------------------------------------------------------ *)

let gen_scheme =
  (* Non-empty subset of {A, B, C, D}. *)
  let open QCheck2.Gen in
  let* bits = int_range 1 15 in
  let attrs =
    List.filteri
      (fun idx _ -> bits land (1 lsl idx) <> 0)
      [ "A"; "B"; "C"; "D" ]
  in
  return (Attr.Set.of_list (List.map Attr.make attrs))

let gen_relation_over scheme =
  let open QCheck2.Gen in
  let attrs = Attr.Set.elements scheme in
  let gen_tuple =
    let* vals = list_repeat (List.length attrs) (int_range 0 3) in
    return (Tuple.of_list (List.combine attrs (List.map Value.int vals)))
  in
  let* tuples = list_size (int_range 0 8) gen_tuple in
  return (Relation.make scheme tuples)

let gen_relation =
  let open QCheck2.Gen in
  gen_scheme >>= gen_relation_over

let gen_relation_pair =
  let open QCheck2.Gen in
  pair gen_relation gen_relation

let qtest name ?(count = 200) gen prop =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name ~count gen prop)

(* ------------------------------------------------------------------ *)
(* Attr                                                                 *)
(* ------------------------------------------------------------------ *)

let test_attr_make_empty () =
  Alcotest.check_raises "empty name" (Invalid_argument "Attr.make: empty name")
    (fun () -> ignore (Attr.make ""))

let test_attr_set_of_string () =
  let set = Attr.Set.of_string "CAB" in
  Alcotest.(check int) "cardinal" 3 (Attr.Set.cardinal set);
  Alcotest.(check string) "sorted shorthand" "ABC" (Attr.Set.to_string set)

let test_attr_set_of_string_dedup () =
  let set = Attr.Set.of_string "ABA" in
  Alcotest.(check int) "duplicates collapse" 2 (Attr.Set.cardinal set)

let test_attr_order () =
  Alcotest.(check bool) "A < B" true (Attr.compare (attr "A") (attr "B") < 0);
  Alcotest.(check bool) "equal" true (Attr.equal (attr "A") (attr "A"))

(* ------------------------------------------------------------------ *)
(* Value                                                                *)
(* ------------------------------------------------------------------ *)

let test_value_order () =
  Alcotest.(check bool) "ints before strings" true
    (Value.compare (i 999) (s "a") < 0);
  Alcotest.(check bool) "int order" true (Value.compare (i 1) (i 2) < 0);
  Alcotest.(check bool) "string order" true (Value.compare (s "a") (s "b") < 0);
  Alcotest.(check bool) "equal" true (Value.equal (s "x") (s "x"))

let test_value_to_string () =
  Alcotest.(check string) "int" "42" (Value.to_string (i 42));
  Alcotest.(check string) "str" "Mokhtar" (Value.to_string (s "Mokhtar"))

(* ------------------------------------------------------------------ *)
(* Tuple                                                                *)
(* ------------------------------------------------------------------ *)

let tu bindings = Tuple.of_string_list bindings

let test_tuple_duplicate () =
  Alcotest.check_raises "dup attr"
    (Invalid_argument "Tuple.of_list: attribute A bound twice") (fun () ->
      ignore (tu [ ("A", i 1); ("A", i 2) ]))

let test_tuple_restrict () =
  let t = tu [ ("A", i 1); ("B", i 2); ("C", i 3) ] in
  let r = Tuple.restrict t (Attr.Set.of_string "AC") in
  Alcotest.(check int) "width" 2 (Attr.Set.cardinal (Tuple.scheme r));
  Alcotest.(check bool) "A kept" true (Value.equal (Tuple.get r (attr "A")) (i 1));
  Alcotest.(check (option unit)) "B dropped" None
    (Option.map (fun _ -> ()) (Tuple.get_opt r (attr "B")))

let test_tuple_restrict_superset () =
  let t = tu [ ("A", i 1) ] in
  let r = Tuple.restrict t (Attr.Set.of_string "AB") in
  Alcotest.(check int) "missing attrs ignored" 1
    (Attr.Set.cardinal (Tuple.scheme r))

let test_tuple_merge () =
  let t1 = tu [ ("A", i 1); ("B", i 2) ] in
  let t2 = tu [ ("B", i 2); ("C", i 3) ] in
  let m = Tuple.merge t1 t2 in
  Alcotest.(check int) "merged width" 3 (Attr.Set.cardinal (Tuple.scheme m));
  Alcotest.check_raises "conflict"
    (Invalid_argument "Tuple.merge: conflicting values for B") (fun () ->
      ignore (Tuple.merge t1 (tu [ ("B", i 7) ])))

let test_tuple_set_get () =
  let t = Tuple.set Tuple.empty (attr "A") (i 5) in
  Alcotest.(check bool) "get" true (Value.equal (Tuple.get t (attr "A")) (i 5));
  let t' = Tuple.set t (attr "A") (i 6) in
  Alcotest.(check bool) "overwrite" true
    (Value.equal (Tuple.get t' (attr "A")) (i 6))

(* ------------------------------------------------------------------ *)
(* Relation: construction                                               *)
(* ------------------------------------------------------------------ *)

(* Example 1's R1 and R2 (Section 3). *)
let r1_ex1 =
  Relation.of_rows "AB"
    [ [ s "p"; i 0 ]; [ s "q"; i 0 ]; [ s "r"; i 0 ]; [ s "s"; i 1 ] ]

let r2_ex1 =
  Relation.of_rows "BC"
    [ [ i 0; s "w" ]; [ i 0; s "x" ]; [ i 0; s "y" ]; [ i 1; s "z" ] ]

let test_of_rows () =
  Alcotest.(check int) "tau(R1)=4" 4 (Relation.cardinality r1_ex1);
  Alcotest.(check string) "scheme" "AB"
    (Attr.Set.to_string (Relation.scheme r1_ex1))

let test_of_rows_bad_width () =
  Alcotest.check_raises "row width"
    (Invalid_argument "Relation.of_rows: row width differs from scheme width")
    (fun () -> ignore (Relation.of_rows "AB" [ [ i 1 ] ]))

let test_of_rows_dup_attr () =
  Alcotest.check_raises "dup attr"
    (Invalid_argument "Relation.of_rows: scheme shorthand repeats an attribute")
    (fun () -> ignore (Relation.of_rows "AA" [ [ i 1; i 2 ] ]))

let test_empty_scheme_invalid () =
  Alcotest.check_raises "empty scheme"
    (Invalid_argument "Relation.empty: a relation scheme must be non-empty")
    (fun () -> ignore (Relation.empty Attr.Set.empty))

let test_duplicates_collapse () =
  let r = Relation.of_rows "A" [ [ i 1 ]; [ i 1 ]; [ i 2 ] ] in
  Alcotest.(check int) "set semantics" 2 (Relation.cardinality r)

(* ------------------------------------------------------------------ *)
(* Relation: algebra                                                    *)
(* ------------------------------------------------------------------ *)

let test_join_example1 () =
  (* The paper states tau(R1 ⋈ R2) = 10: 3x3 tuples via B=0 plus 1 via B=1. *)
  let j = Relation.natural_join r1_ex1 r2_ex1 in
  Alcotest.(check int) "tau = 10" 10 (Relation.cardinality j);
  Alcotest.(check string) "scheme ABC" "ABC"
    (Attr.Set.to_string (Relation.scheme j))

let test_join_is_product_when_disjoint () =
  let r3 = Relation.of_rows "D" [ [ i 1 ]; [ i 2 ] ] in
  let j = Relation.natural_join r1_ex1 r3 in
  Alcotest.(check int) "4 * 2" 8 (Relation.cardinality j)

let test_product_requires_disjoint () =
  Alcotest.check_raises "overlap"
    (Invalid_argument "Relation.product: schemes overlap; use natural_join")
    (fun () -> ignore (Relation.product r1_ex1 r2_ex1))

let test_join_with_empty () =
  let e = Relation.empty (Attr.Set.of_string "BC") in
  Alcotest.(check int) "join with empty" 0
    (Relation.cardinality (Relation.natural_join r1_ex1 e))

let test_project () =
  let p = Relation.project r1_ex1 (Attr.Set.of_string "B") in
  Alcotest.(check int) "distinct B" 2 (Relation.cardinality p)

let test_project_invalid () =
  Alcotest.check_raises "not a subset"
    (Invalid_argument "Relation.project: CZ is not a subset of AB") (fun () ->
      ignore (Relation.project r1_ex1 (Attr.Set.of_string "CZ")))

let test_select () =
  let sel =
    Relation.select r1_ex1 (fun t -> Value.equal (Tuple.get t (attr "B")) (i 0))
  in
  Alcotest.(check int) "B=0" 3 (Relation.cardinality sel)

let test_semijoin () =
  let r2' = Relation.of_rows "BC" [ [ i 1; s "z" ] ] in
  let sj = Relation.semijoin r1_ex1 r2' in
  Alcotest.(check int) "only s,1 survives" 1 (Relation.cardinality sj);
  Alcotest.(check string) "scheme unchanged" "AB"
    (Attr.Set.to_string (Relation.scheme sj))

let test_semijoin_disjoint () =
  let nonempty = Relation.of_rows "D" [ [ i 1 ] ] in
  let empty = Relation.empty (Attr.Set.of_string "D") in
  Alcotest.(check int) "vs nonempty: all pass" 4
    (Relation.cardinality (Relation.semijoin r1_ex1 nonempty));
  Alcotest.(check int) "vs empty: none pass" 0
    (Relation.cardinality (Relation.semijoin r1_ex1 empty))

let test_antijoin () =
  let r2' = Relation.of_rows "BC" [ [ i 1; s "z" ] ] in
  let aj = Relation.antijoin r1_ex1 r2' in
  Alcotest.(check int) "three dangling" 3 (Relation.cardinality aj)

let test_set_ops () =
  let ra = Relation.of_rows "A" [ [ i 1 ]; [ i 2 ] ] in
  let rb = Relation.of_rows "A" [ [ i 2 ]; [ i 3 ] ] in
  Alcotest.(check int) "union" 3 (Relation.cardinality (Relation.union ra rb));
  Alcotest.(check int) "inter" 1 (Relation.cardinality (Relation.inter ra rb));
  Alcotest.(check int) "diff" 1 (Relation.cardinality (Relation.diff ra rb))

let test_set_ops_scheme_mismatch () =
  let ra = Relation.of_rows "A" [ [ i 1 ] ] in
  let rb = Relation.of_rows "B" [ [ i 1 ] ] in
  Alcotest.check_raises "union mismatch"
    (Invalid_argument "Relation.union: schemes A and B differ") (fun () ->
      ignore (Relation.union ra rb))

let test_rename () =
  let r = Relation.rename r1_ex1 [ (attr "A", attr "Z") ] in
  Alcotest.(check string) "renamed scheme" "BZ"
    (Attr.Set.to_string (Relation.scheme r));
  Alcotest.(check int) "cardinality preserved" 4 (Relation.cardinality r)

let test_rename_not_injective () =
  Alcotest.check_raises "collision"
    (Invalid_argument "Relation.rename: renaming is not injective on the scheme")
    (fun () -> ignore (Relation.rename r1_ex1 [ (attr "A", attr "B") ]))

let test_rename_wide_scheme () =
  (* A 40-attribute scheme renamed wholesale: the mapping is looked up
     through a pre-built map, and every column must land on its target
     with values intact (first binding wins on duplicate sources). *)
  let n = 40 in
  let src j = attr (Printf.sprintf "a%02d" j) in
  let dst j = attr (Printf.sprintf "z%02d" j) in
  let scheme = Attr.Set.of_list (List.init n src) in
  let tuple k = Tuple.of_list (List.init n (fun j -> (src j, i (j + k)))) in
  let r = Relation.make scheme [ tuple 0; tuple 100 ] in
  let mapping =
    List.init n (fun j -> (src j, dst j)) @ [ (src 0, attr "ignored") ]
  in
  let renamed = Relation.rename r mapping in
  let expected_scheme = Attr.Set.of_list (List.init n dst) in
  Alcotest.(check bool)
    "every attribute renamed" true
    (Attr.Set.equal (Relation.scheme renamed) expected_scheme);
  let expected k = Tuple.of_list (List.init n (fun j -> (dst j, i (j + k)))) in
  Alcotest.(check bool)
    "values follow their columns" true
    (Relation.equal renamed
       (Relation.make expected_scheme [ expected 0; expected 100 ]))

let test_distinct_values () =
  Alcotest.(check int) "B has 2" 2
    (List.length (Relation.distinct_values r1_ex1 (attr "B")))

(* ------------------------------------------------------------------ *)
(* Relation: properties                                                 *)
(* ------------------------------------------------------------------ *)

let prop_join_commutative =
  qtest "join commutative" gen_relation_pair (fun (r1, r2) ->
      Relation.equal (Relation.natural_join r1 r2) (Relation.natural_join r2 r1))

let prop_join_associative =
  qtest "join associative" ~count:100
    QCheck2.Gen.(triple gen_relation gen_relation gen_relation)
    (fun (r1, r2, r3) ->
      Relation.equal
        (Relation.natural_join (Relation.natural_join r1 r2) r3)
        (Relation.natural_join r1 (Relation.natural_join r2 r3)))

let prop_join_bounded_by_product =
  qtest "tau(join) <= tau(r1)*tau(r2)" gen_relation_pair (fun (r1, r2) ->
      Relation.cardinality (Relation.natural_join r1 r2)
      <= Relation.cardinality r1 * Relation.cardinality r2)

let prop_join_idempotent =
  qtest "r join r = r" gen_relation (fun r ->
      Relation.equal (Relation.natural_join r r) r)

let prop_semijoin_shrinks =
  qtest "semijoin is a subset" gen_relation_pair (fun (r1, r2) ->
      let sj = Relation.semijoin r1 r2 in
      Relation.for_all (fun t -> Relation.mem t r1) sj)

let prop_semijoin_antijoin_partition =
  qtest "semijoin + antijoin = r1" gen_relation_pair (fun (r1, r2) ->
      Relation.equal r1
        (Relation.union (Relation.semijoin r1 r2) (Relation.antijoin r1 r2)))

let prop_project_cardinality =
  qtest "projection never grows" gen_relation (fun r ->
      let scheme = Relation.scheme r in
      let first = Attr.Set.min_elt scheme in
      let p = Relation.project r (Attr.Set.singleton first) in
      Relation.cardinality p <= Relation.cardinality r)

let prop_join_contains_restrictions =
  qtest "join tuples restrict to operands" gen_relation_pair (fun (r1, r2) ->
      let j = Relation.natural_join r1 r2 in
      Relation.for_all
        (fun t ->
          Relation.mem (Tuple.restrict t (Relation.scheme r1)) r1
          && Relation.mem (Tuple.restrict t (Relation.scheme r2)) r2)
        j)

(* ------------------------------------------------------------------ *)
(* Functional dependencies                                              *)
(* ------------------------------------------------------------------ *)

let test_fd_closure () =
  let fds = Fd.of_strings [ ("A", "B"); ("B", "C") ] in
  let cl = Fd.closure fds (Attr.Set.of_string "A") in
  Alcotest.(check string) "A+ = ABC" "ABC" (Attr.Set.to_string cl)

let test_fd_closure_no_fire () =
  let fds = Fd.of_strings [ ("AB", "C") ] in
  let cl = Fd.closure fds (Attr.Set.of_string "A") in
  Alcotest.(check string) "A+ = A" "A" (Attr.Set.to_string cl)

let test_fd_implies () =
  let fds = Fd.of_strings [ ("A", "B"); ("B", "C") ] in
  Alcotest.(check bool) "A->C implied" true
    (Fd.implies fds (Fd.fd (Attr.Set.of_string "A") (Attr.Set.of_string "C")));
  Alcotest.(check bool) "C->A not implied" false
    (Fd.implies fds (Fd.fd (Attr.Set.of_string "C") (Attr.Set.of_string "A")))

let test_fd_superkey () =
  let fds = Fd.of_strings [ ("A", "BC") ] in
  let scheme = Attr.Set.of_string "ABC" in
  Alcotest.(check bool) "A superkey" true
    (Fd.is_superkey fds scheme (Attr.Set.of_string "A"));
  Alcotest.(check bool) "B not" false
    (Fd.is_superkey fds scheme (Attr.Set.of_string "B"));
  Alcotest.(check bool) "AB superkey, not key" true
    (Fd.is_superkey fds scheme (Attr.Set.of_string "AB"));
  Alcotest.(check bool) "AB not minimal" false
    (Fd.is_key fds scheme (Attr.Set.of_string "AB"));
  Alcotest.(check bool) "A is key" true
    (Fd.is_key fds scheme (Attr.Set.of_string "A"))

let test_fd_candidate_keys () =
  (* Classic: R(ABC), A->B, B->C, C->A: every single attribute is a key. *)
  let fds = Fd.of_strings [ ("A", "B"); ("B", "C"); ("C", "A") ] in
  let keys = Fd.candidate_keys fds (Attr.Set.of_string "ABC") in
  Alcotest.(check int) "three keys" 3 (List.length keys);
  List.iter
    (fun k -> Alcotest.(check int) "singleton" 1 (Attr.Set.cardinal k))
    keys

let test_fd_candidate_keys_composite () =
  let fds = Fd.of_strings [ ("AB", "C") ] in
  let keys = Fd.candidate_keys fds (Attr.Set.of_string "ABC") in
  Alcotest.(check int) "one key" 1 (List.length keys);
  Alcotest.(check string) "AB" "AB" (Attr.Set.to_string (List.hd keys))

let test_fd_minimal_cover () =
  (* A->BC splits; A->B follows from nothing else so both kept;
     the redundant A->C via transitive closure is dropped. *)
  let fds = Fd.of_strings [ ("A", "B"); ("B", "C"); ("A", "C") ] in
  let cover = Fd.minimal_cover fds in
  Alcotest.(check int) "redundant dropped" 2 (List.length cover);
  Alcotest.(check bool) "equivalent" true (Fd.equivalent fds cover)

let test_fd_minimal_cover_extraneous () =
  let fds = Fd.of_strings [ ("A", "B"); ("AB", "C") ] in
  let cover = Fd.minimal_cover fds in
  (* B is extraneous in AB->C given A->B. *)
  Alcotest.(check bool) "equivalent" true (Fd.equivalent fds cover);
  List.iter
    (fun (d : Fd.fd) ->
      Alcotest.(check bool) "lhs minimal" true (Attr.Set.cardinal d.lhs <= 1))
    cover

let test_fd_project () =
  let fds = Fd.of_strings [ ("A", "B"); ("B", "C") ] in
  let proj = Fd.project fds (Attr.Set.of_string "AC") in
  Alcotest.(check bool) "A->C survives" true
    (Fd.implies proj (Fd.fd (Attr.Set.of_string "A") (Attr.Set.of_string "C")))

let test_fd_holds_in () =
  let d = Fd.fd (Attr.Set.of_string "A") (Attr.Set.of_string "B") in
  let good = Relation.of_rows "AB" [ [ i 1; i 10 ]; [ i 2; i 10 ] ] in
  let bad = Relation.of_rows "AB" [ [ i 1; i 10 ]; [ i 1; i 20 ] ] in
  Alcotest.(check bool) "holds" true (Fd.holds_in good d);
  Alcotest.(check bool) "violated" false (Fd.holds_in bad d)

let prop_closure_monotone =
  qtest "closure contains its argument" gen_scheme (fun x ->
      let fds = Fd.of_strings [ ("A", "B"); ("C", "D") ] in
      Attr.Set.subset x (Fd.closure fds x))

let prop_closure_idempotent =
  qtest "closure idempotent" gen_scheme (fun x ->
      let fds = Fd.of_strings [ ("A", "BC"); ("B", "D") ] in
      Attr.Set.equal (Fd.closure fds x) (Fd.closure fds (Fd.closure fds x)))

(* ------------------------------------------------------------------ *)
(* Chase                                                                *)
(* ------------------------------------------------------------------ *)

let test_chase_lossless_classic () =
  (* {AB, BC} decomposition of ABC is lossless iff B->A or B->C. *)
  let schemes = [ Attr.Set.of_string "AB"; Attr.Set.of_string "BC" ] in
  Alcotest.(check bool) "with B->C lossless" true
    (Chase.is_lossless (Fd.of_strings [ ("B", "C") ]) schemes);
  Alcotest.(check bool) "without FDs lossy" false
    (Chase.is_lossless [] schemes)

let test_chase_three_way () =
  (* {AB, BC, CD} of ABCD with B->C, C->D is lossless. *)
  let schemes = Scheme.Set.elements (Scheme.Set.of_strings [ "AB"; "BC"; "CD" ]) in
  Alcotest.(check bool) "chain lossless" true
    (Chase.is_lossless (Fd.of_strings [ ("B", "C"); ("C", "D") ]) schemes);
  Alcotest.(check bool) "no FDs lossy" false (Chase.is_lossless [] schemes)

let test_chase_single_scheme () =
  Alcotest.(check bool) "single trivially lossless" true
    (Chase.is_lossless [] [ Attr.Set.of_string "AB" ])

let test_chase_initial_shape () =
  let t = Chase.initial [ Attr.Set.of_string "AB"; Attr.Set.of_string "BC" ] in
  Alcotest.(check int) "two rows" 2 (Array.length t);
  let row0 = t.(0) in
  Alcotest.(check bool) "distinguished on own scheme" true
    (Attr.Map.find (attr "A") row0 = Chase.Distinguished);
  Alcotest.(check bool) "variable elsewhere" true
    (match Attr.Map.find (attr "C") row0 with
    | Chase.Var _ -> true
    | Chase.Distinguished -> false)

(* ------------------------------------------------------------------ *)
(* Database                                                             *)
(* ------------------------------------------------------------------ *)

let db_ex1 =
  Database.of_relations
    [ r1_ex1; r2_ex1; Relation.of_rows "D" [ [ i 1 ] ] ]

let test_database_basics () =
  Alcotest.(check int) "size" 3 (Database.size db_ex1);
  Alcotest.(check string) "universe" "ABCD"
    (Attr.Set.to_string (Database.universe db_ex1));
  Alcotest.(check int) "total tuples" 9 (Database.total_tuples db_ex1)

let test_database_duplicate_scheme () =
  Alcotest.check_raises "dup"
    (Invalid_argument "Database.of_relations: duplicate scheme AB") (fun () ->
      ignore (Database.of_relations [ r1_ex1; r1_ex1 ]))

let test_database_join_all () =
  let j = Database.join_all db_ex1 in
  Alcotest.(check int) "10 * 1" 10 (Relation.cardinality j)

let test_database_restrict () =
  let sub = Database.restrict db_ex1 (Scheme.Set.of_strings [ "AB"; "BC" ]) in
  Alcotest.(check int) "two relations" 2 (Database.size sub)

let test_database_replace () =
  let db = Database.replace db_ex1 (Relation.of_rows "D" [ [ i 1 ]; [ i 2 ] ]) in
  Alcotest.(check int) "replaced" 2
    (Relation.cardinality (Database.find db (Scheme.of_string "D")))

(* ------------------------------------------------------------------ *)
(* Consistency                                                          *)
(* ------------------------------------------------------------------ *)

let test_consistent_pair () =
  let r = Relation.of_rows "AB" [ [ i 1; i 0 ]; [ i 2; i 0 ] ] in
  let r' = Relation.of_rows "BC" [ [ i 0; i 5 ] ] in
  let r'' = Relation.of_rows "BC" [ [ i 0; i 5 ]; [ i 9; i 6 ] ] in
  Alcotest.(check bool) "consistent" true (Consistency.consistent_pair r r');
  Alcotest.(check bool) "dangling B=9" false (Consistency.consistent_pair r r'')

let test_semijoin_reduce () =
  let db =
    Database.of_rows
      [ ("AB", [ [ i 1; i 0 ]; [ i 2; i 9 ] ]);
        ("BC", [ [ i 0; i 5 ]; [ i 7; i 6 ] ]) ]
  in
  let reduced = Consistency.semijoin_reduce db in
  Alcotest.(check int) "AB loses B=9" 1
    (Relation.cardinality (Database.find reduced (Scheme.of_string "AB")));
  Alcotest.(check int) "BC loses B=7" 1
    (Relation.cardinality (Database.find reduced (Scheme.of_string "BC")));
  Alcotest.(check bool) "now pairwise consistent" true
    (Consistency.pairwise_consistent reduced)

(* The reducer never semijoins attribute-disjoint states, so on an
   unconnected scheme an empty component empties the global join but
   not the other components: the result is not the full reduction. *)
let test_semijoin_reduce_unconnected () =
  let db =
    Database.of_rows
      [ ("AB", [ [ i 1; i 0 ]; [ i 2; i 9 ] ]);
        ("BC", [ [ i 0; i 5 ] ]);
        ("DE", []) ]
  in
  let reduced = Consistency.semijoin_reduce db in
  let card s =
    Relation.cardinality (Database.find reduced (Scheme.of_string s))
  in
  Alcotest.(check bool) "global join empty" true
    (Relation.is_empty (Database.join_all db));
  Alcotest.(check int) "AB keeps B=0" 1 (card "AB");
  Alcotest.(check int) "BC keeps its row" 1 (card "BC");
  Alcotest.(check int) "DE stays empty" 0 (card "DE");
  Alcotest.(check bool) "not globally consistent" false
    (Consistency.globally_consistent reduced)

let test_globally_consistent () =
  let db =
    Database.of_rows
      [ ("AB", [ [ i 1; i 0 ] ]); ("BC", [ [ i 0; i 5 ] ]) ]
  in
  Alcotest.(check bool) "consistent" true (Consistency.globally_consistent db)

let test_dangling_tuples () =
  let db =
    Database.of_rows
      [ ("AB", [ [ i 1; i 0 ]; [ i 2; i 9 ] ]); ("BC", [ [ i 0; i 5 ] ]) ]
  in
  let dangling = Consistency.dangling_tuples db in
  let ab = List.assoc (Scheme.of_string "AB") dangling in
  Alcotest.(check int) "one dangling in AB" 1 ab

let prop_reduce_preserves_join =
  qtest "semijoin reduction preserves the global join" ~count:80
    gen_relation_pair (fun (r1, r2) ->
      (* Force distinct schemes by renaming when equal. *)
      let r2 =
        if Scheme.equal (Relation.scheme r1) (Relation.scheme r2) then
          Relation.rename r2
            [ (Attr.Set.min_elt (Relation.scheme r2), attr "Z") ]
        else r2
      in
      let db = Database.of_relations [ r1; r2 ] in
      let reduced = Consistency.semijoin_reduce db in
      Relation.equal (Database.join_all db) (Database.join_all reduced))

(* ------------------------------------------------------------------ *)
(* Result digest                                                       *)
(* ------------------------------------------------------------------ *)

(* The reference oracle: the serve protocol's original result hash,
   kept verbatim.  [Relation.digest] must reproduce its byte stream —
   the wire contract — without the sort, the [Format] rendering or the
   per-tuple strings. *)
module Reference = struct
  let fnv_offset = 0xcbf29ce484222325L
  let fnv_prime = 0x100000001b3L

  let fnv_string h s =
    let h = ref h in
    String.iter
      (fun c ->
        h := Int64.logxor !h (Int64.of_int (Char.code c));
        h := Int64.mul !h fnv_prime)
      s;
    !h

  let result_hash r =
    let tuples =
      Relation.tuples r |> List.sort Tuple.compare |> List.map Tuple.to_string
    in
    let h = fnv_string fnv_offset (Scheme.to_string (Relation.scheme r)) in
    List.fold_left (fun h t -> fnv_string (fnv_string h "\n") t) h tuples
end

(* Values the digest must render exactly like [Value.to_string]:
   negative and extreme ints, and strings that are long or carry the
   stream's own separators. *)
let gen_value =
  let open QCheck2.Gen in
  oneof
    [
      map Value.int (int_range (-3) 3);
      map Value.int int;
      oneofl [ Value.int min_int; Value.int max_int ];
      map Value.str (string_size ~gen:printable (int_range 0 6));
      map Value.str (string_size ~gen:printable (int_range 70 120));
      oneofl (List.map Value.str [ ""; ", "; "\n"; "a=b"; "(x)"; "\xe2\x88\x85" ]);
    ]

(* Non-empty schemes of up to nine single-letter and multi-letter
   attributes (the scheme string switches to comma separators for the
   latter); up to 12 tuples, so empty and single-tuple states show up
   often. *)
let gen_digest_relation =
  let open QCheck2.Gen in
  let pool = [ "A"; "B"; "C"; "D"; "E"; "F"; "G"; "key"; "x1" ] in
  let* bits = int_range 1 ((1 lsl List.length pool) - 1) in
  let attrs =
    List.filteri (fun idx _ -> bits land (1 lsl idx) <> 0) pool
    |> List.map Attr.make
  in
  let gen_tuple =
    let* vals = list_repeat (List.length attrs) gen_value in
    return (Tuple.of_list (List.combine attrs vals))
  in
  let* tuples = list_size (int_range 0 12) gen_tuple in
  return (Relation.make (Attr.Set.of_list attrs) tuples)

let prop_digest_matches_reference =
  qtest "digest matches the reference hash" ~count:500 gen_digest_relation
    (fun r -> Int64.equal (Relation.digest r) (Reference.result_hash r))

let test_digest_fixed () =
  let check name r =
    Alcotest.(check int64) name (Reference.result_hash r) (Relation.digest r)
  in
  check "example 1" r1_ex1;
  check "empty state hashes its scheme alone"
    (Relation.empty (Attr.Set.of_string "AB"));
  check "width 1" (Relation.of_rows "A" [ [ i min_int ]; [ i 0 ]; [ s "z" ] ]);
  check "every decimal width"
    (Relation.of_rows "AB"
       (List.init 19 (fun k ->
            let p = int_of_float (10. ** float_of_int k) in
            [ i p; i (-p - 1) ])
       @ [ [ i max_int; i min_int ] ]));
  Alcotest.(check bool)
    "tuple order is part of the stream, not the insertion order" true
    (Int64.equal
       (Relation.digest (Relation.of_rows "A" [ [ i 2 ]; [ i 1 ] ]))
       (Relation.digest (Relation.of_rows "A" [ [ i 1 ]; [ i 2 ] ])))

(* The stream checks every row's width against its scheme, so a row
   that does not match fails loudly instead of hashing garbage. *)
let test_digest_row_width () =
  let stream () = Fnv.result (Attr.Set.of_string "AB") in
  let tuples_of_width w =
    [| Tuple.of_list (List.init w (fun k -> (attr (String.make 1 (Char.chr (65 + k))), i k)))
    |]
  in
  List.iter
    (fun w ->
      Alcotest.check_raises
        (Printf.sprintf "tuple of width %d" w)
        (Invalid_argument "Fnv.tuples: rows differ in width from the scheme")
        (fun () -> Fnv.tuples (stream ()) (tuples_of_width w)))
    [ 1; 3 ];
  Alcotest.check_raises "block of another width"
    (Invalid_argument "Fnv.text_rows: rows differ in width from the scheme")
    (fun () ->
      Fnv.text_rows (stream ()) ~text:[| "1" |] ~data:[| 0; 0; 0 |] ~width:3 1)

(* ------------------------------------------------------------------ *)
(* Reference model                                                      *)
(* ------------------------------------------------------------------ *)

(* The attribute-map tuples and tree-set states the seed plane was built
   on before it went flat, kept verbatim as the model the flat
   representation must agree with: the same order, the same answers,
   the same digests and the same error messages. *)
module Model = struct
  [@@@warning "-32"]

  module Tuple = struct
    type t = Value.t Attr.Map.t

    let empty = Attr.Map.empty

    let of_list bindings =
      List.fold_left
        (fun acc (a, v) ->
          if Attr.Map.mem a acc then
            invalid_arg
              (Printf.sprintf "Tuple.of_list: attribute %s bound twice"
                 (Attr.to_string a))
          else Attr.Map.add a v acc)
        Attr.Map.empty bindings

    let of_string_list bindings =
      of_list (List.map (fun (name, v) -> (Attr.make name, v)) bindings)

    (* Trusted fast path for columnar decode: the caller guarantees the
       attributes are distinct, so the per-binding membership probe of
       [of_list] is skipped. *)
    let of_distinct_bindings bindings =
      List.fold_left (fun acc (a, v) -> Attr.Map.add a v acc) Attr.Map.empty
        bindings

    (* Same contract, driven by column index — lets a columnar decode loop
       build each tuple without materialising a bindings list per row. *)
    let of_columns attrs get =
      let tu = ref Attr.Map.empty in
      for j = Array.length attrs - 1 downto 0 do
        tu := Attr.Map.add (Array.unsafe_get attrs j) (get j) !tu
      done;
      !tu

    let bindings t = Attr.Map.bindings t
    let iter f t = Attr.Map.iter f t

    let scheme t =
      Attr.Map.fold (fun a _ acc -> Attr.Set.add a acc) t Attr.Set.empty

    let get t a = Attr.Map.find a t
    let get_opt t a = Attr.Map.find_opt a t
    let set t a v = Attr.Map.add a v t

    let restrict t x = Attr.Map.filter (fun a _ -> Attr.Set.mem a x) t

    let merge t1 t2 =
      Attr.Map.union
        (fun a v1 v2 ->
          if Value.equal v1 v2 then Some v1
          else
            invalid_arg
              (Printf.sprintf "Tuple.merge: conflicting values for %s"
                 (Attr.to_string a)))
        t1 t2

    let compare t1 t2 = Attr.Map.compare Value.compare t1 t2
    let equal t1 t2 = compare t1 t2 = 0

    let pp fmt t =
      let pp_binding fmt (a, v) =
        Format.fprintf fmt "%a=%a" Attr.pp a Value.pp v
      in
      Format.fprintf fmt "(%a)"
        (Format.pp_print_list
           ~pp_sep:(fun fmt () -> Format.pp_print_string fmt ", ")
           pp_binding)
        (bindings t)

    let to_string t = Format.asprintf "%a" pp t
  end

  module Relation = struct
    module Tuple_set = Stdlib.Set.Make (Tuple)
    module Vset = Stdlib.Set.Make (Value)

    type t = {
      scheme : Attr.Set.t;
      tuples : Tuple_set.t;
    }

    let empty scheme =
      if Attr.Set.is_empty scheme then
        invalid_arg "Relation.empty: a relation scheme must be non-empty";
      { scheme; tuples = Tuple_set.empty }

    let check_tuple scheme tu =
      if not (Attr.Set.equal (Tuple.scheme tu) scheme) then
        invalid_arg
          (Printf.sprintf "Relation: tuple %s is not over scheme %s"
             (Tuple.to_string tu)
             (Attr.Set.to_string scheme))

    let add tu r =
      check_tuple r.scheme tu;
      { r with tuples = Tuple_set.add tu r.tuples }

    let make scheme tuples = List.fold_left (fun r tu -> add tu r) (empty scheme) tuples

    (* Trusted fast path for columnar decode: every tuple is over [scheme]
       by construction (only the head is checked), so the set is built in
       one [Tuple_set.of_list] pass — a single sort, which the decode
       feeds in already-ascending order, halving its comparison cost —
       instead of per-tuple checked inserts. *)
    let of_uniform_tuples scheme tuples =
      let r = empty scheme in
      match tuples with
      | [] -> r
      | tu :: _ ->
          check_tuple scheme tu;
          { r with tuples = Tuple_set.of_list tuples }

    let of_rows shorthand rows =
      let attrs =
        List.init (String.length shorthand) (fun i ->
            Attr.make (String.make 1 shorthand.[i]))
      in
      let distinct = List.sort_uniq Attr.compare attrs in
      if List.length distinct <> List.length attrs then
        invalid_arg "Relation.of_rows: scheme shorthand repeats an attribute";
      let scheme = Attr.Set.of_list attrs in
      let row_to_tuple row =
        if List.length row <> List.length attrs then
          invalid_arg "Relation.of_rows: row width differs from scheme width";
        Tuple.of_list (List.combine attrs row)
      in
      make scheme (List.map row_to_tuple rows)

    let scheme r = r.scheme
    let cardinality r = Tuple_set.cardinal r.tuples
    let is_empty r = Tuple_set.is_empty r.tuples
    let mem tu r = Tuple_set.mem tu r.tuples
    let tuples r = Tuple_set.elements r.tuples
    let fold f r acc = Tuple_set.fold f r.tuples acc
    let iter f r = Tuple_set.iter f r.tuples
    let for_all p r = Tuple_set.for_all p r.tuples
    let exists p r = Tuple_set.exists p r.tuples

    let distinct_values r a =
      if not (Attr.Set.mem a r.scheme) then
        invalid_arg
          (Printf.sprintf "Relation.distinct_values: %s not in scheme %s"
             (Attr.to_string a)
             (Attr.Set.to_string r.scheme));
      Vset.elements (fold (fun tu acc -> Vset.add (Tuple.get tu a) acc) r Vset.empty)

    (* A hash-join keyed on the restriction of each tuple to the common
       attributes.  The extractor is compiled once per join: the common
       attributes are listed once and each probe reads the values directly,
       so no per-probe map restriction is built.  The resulting value list
       (in increasing attribute order) is safe for structural hashing (Map
       internals are not). *)
    let key_extractor common =
      let attrs = Attr.Set.elements common in
      fun tu -> List.map (fun a -> Tuple.get tu a) attrs

    let natural_join r1 r2 =
      let common = Attr.Set.inter r1.scheme r2.scheme in
      let out_scheme = Attr.Set.union r1.scheme r2.scheme in
      if Attr.Set.is_empty common then
        (* Cartesian product: every pair matches, so the hash index would be
           a single degenerate bucket — pair the tuples directly instead. *)
        let out =
          fold
            (fun tu acc ->
              fold
                (fun tu' acc -> Tuple_set.add (Tuple.merge tu tu') acc)
                r2 acc)
            r1 Tuple_set.empty
        in
        { scheme = out_scheme; tuples = out }
      else begin
        (* Index the smaller operand to bound the hash table size. *)
        let small, large =
          if cardinality r1 <= cardinality r2 then (r1, r2) else (r2, r1)
        in
        let key = key_extractor common in
        let index = Hashtbl.create (max 16 (cardinality small)) in
        iter (fun tu -> Hashtbl.add index (key tu) tu) small;
        let out =
          fold
            (fun tu acc ->
              let matches = Hashtbl.find_all index (key tu) in
              List.fold_left
                (fun acc tu' -> Tuple_set.add (Tuple.merge tu tu') acc)
                acc matches)
            large Tuple_set.empty
        in
        { scheme = out_scheme; tuples = out }
      end

    let product r1 r2 =
      if not (Attr.Set.disjoint r1.scheme r2.scheme) then
        invalid_arg "Relation.product: schemes overlap; use natural_join";
      natural_join r1 r2

    let project r x =
      if Attr.Set.is_empty x then
        invalid_arg "Relation.project: projection onto the empty scheme";
      if not (Attr.Set.subset x r.scheme) then
        invalid_arg
          (Printf.sprintf "Relation.project: %s is not a subset of %s"
             (Attr.Set.to_string x)
             (Attr.Set.to_string r.scheme));
      let out =
        fold (fun tu acc -> Tuple_set.add (Tuple.restrict tu x) acc) r
          Tuple_set.empty
      in
      { scheme = x; tuples = out }

    let select r p = { r with tuples = Tuple_set.filter p r.tuples }

    let semijoin r1 r2 =
      let common = Attr.Set.inter r1.scheme r2.scheme in
      if Attr.Set.is_empty common then
        (* With no common attributes every tuple joins iff r2 is non-empty. *)
        if is_empty r2 then { r1 with tuples = Tuple_set.empty } else r1
      else begin
        let key = key_extractor common in
        let keys = Hashtbl.create (max 16 (cardinality r2)) in
        iter (fun tu -> Hashtbl.replace keys (key tu) ()) r2;
        select r1 (fun tu -> Hashtbl.mem keys (key tu))
      end

    let antijoin r1 r2 =
      let kept = semijoin r1 r2 in
      { r1 with tuples = Tuple_set.diff r1.tuples kept.tuples }

    let check_same_scheme op r1 r2 =
      if not (Attr.Set.equal r1.scheme r2.scheme) then
        invalid_arg
          (Printf.sprintf "Relation.%s: schemes %s and %s differ" op
             (Attr.Set.to_string r1.scheme)
             (Attr.Set.to_string r2.scheme))

    let union r1 r2 =
      check_same_scheme "union" r1 r2;
      { r1 with tuples = Tuple_set.union r1.tuples r2.tuples }

    let inter r1 r2 =
      check_same_scheme "inter" r1 r2;
      { r1 with tuples = Tuple_set.inter r1.tuples r2.tuples }

    let diff r1 r2 =
      check_same_scheme "diff" r1 r2;
      { r1 with tuples = Tuple_set.diff r1.tuples r2.tuples }

    let rename r mapping =
      (* Pre-build the mapping as a map so each attribute costs one lookup
         instead of a linear scan of the list (earlier entries win, matching
         the historical List.find_opt behaviour). *)
      let map =
        List.fold_left
          (fun acc (src, dst) ->
            if Attr.Map.mem src acc then acc else Attr.Map.add src dst acc)
          Attr.Map.empty mapping
      in
      let rename_attr a =
        match Attr.Map.find_opt a map with Some dst -> dst | None -> a
      in
      let out_scheme = Attr.Set.map rename_attr r.scheme in
      if Attr.Set.cardinal out_scheme <> Attr.Set.cardinal r.scheme then
        invalid_arg "Relation.rename: renaming is not injective on the scheme";
      let rename_tuple tu =
        Tuple.of_list
          (List.map (fun (a, v) -> (rename_attr a, v)) (Tuple.bindings tu))
      in
      let out =
        fold (fun tu acc -> Tuple_set.add (rename_tuple tu) acc) r Tuple_set.empty
      in
      { scheme = out_scheme; tuples = out }

    let equal r1 r2 =
      Attr.Set.equal r1.scheme r2.scheme && Tuple_set.equal r1.tuples r2.tuples

    let compare r1 r2 =
      let c = Attr.Set.compare r1.scheme r2.scheme in
      if c <> 0 then c else Tuple_set.compare r1.tuples r2.tuples

    (* The result digest over the tuples in set order, which is
       [Tuple.compare] order, each fed as a flat tuple. *)
    let digest r =
      let s = Fnv.result r.scheme in
      Fnv.tuples s
        (Array.of_list
           (List.map
              (fun tu -> Mj_relation.Tuple.of_list (Attr.Map.bindings tu))
              (Tuple_set.elements r.tuples)));
      Fnv.digest s

    let pp fmt r =
      let attrs = Attr.Set.elements r.scheme in
      let header = List.map Attr.to_string attrs in
      let rows =
        List.map
          (fun tu -> List.map (fun a -> Value.to_string (Tuple.get tu a)) attrs)
          (tuples r)
      in
      let widths =
        List.mapi
          (fun i h ->
            List.fold_left
              (fun w row -> max w (String.length (List.nth row i)))
              (String.length h) rows)
          header
      in
      let pad s w = s ^ String.make (w - String.length s) ' ' in
      let pp_row row =
        Format.fprintf fmt "| %s |@,"
          (String.concat " | " (List.map2 pad row widths))
      in
      let rule =
        "+" ^ String.concat "+" (List.map (fun w -> String.make (w + 2) '-') widths)
        ^ "+"
      in
      Format.pp_open_vbox fmt 0;
      Format.fprintf fmt "%s@," rule;
      pp_row header;
      Format.fprintf fmt "%s@," rule;
      List.iter pp_row rows;
      Format.fprintf fmt "%s" rule;
      Format.pp_close_box fmt ()

    let pp_brief fmt r =
      Format.fprintf fmt "%a(%d)" Attr.Set.pp r.scheme (cardinality r)

    let to_string r = Format.asprintf "%a" pp r
  end
end

(* Mixed single- and multi-letter attributes, so attribute order is
   string order and not character order; small int and string domains,
   so duplicates, joins and ties are common. *)
let model_pool = List.map Attr.make [ "A"; "B"; "C"; "key"; "x1" ]

let gen_model_value =
  let open QCheck2.Gen in
  oneof
    [
      map Value.int (int_range (-1) 2);
      map Value.str (oneofl [ ""; "a"; "ab"; "b" ]);
    ]

let gen_subset =
  let open QCheck2.Gen in
  let* bits = int_range 1 ((1 lsl List.length model_pool) - 1) in
  return (List.filteri (fun idx _ -> bits land (1 lsl idx) <> 0) model_pool)

let gen_bindings_over attrs =
  let open QCheck2.Gen in
  let* vals = list_repeat (List.length attrs) gen_model_value in
  shuffle_l (List.combine attrs vals)

(* A pair of binding lists, the second related to the first in one of
   the ways the order must get right: unrelated, a proper prefix, an
   extension, the same scheme with other values, or equal. *)
let gen_binding_pair =
  let open QCheck2.Gen in
  let* attrs = gen_subset in
  let* b1 = gen_bindings_over attrs in
  let sorted = List.sort (fun (a, _) (b, _) -> Attr.compare a b) b1 in
  let* b2 =
    oneof
      [
        (gen_subset >>= gen_bindings_over);
        (let* k = int_range 0 (List.length sorted - 1) in
         return (List.filteri (fun idx _ -> idx < k) sorted));
        (let extra = List.filter (fun a -> not (List.mem a attrs)) model_pool in
         let* more = gen_bindings_over extra in
         let* k = int_range 0 (List.length more) in
         shuffle_l (b1 @ List.filteri (fun idx _ -> idx < k) more));
        gen_bindings_over attrs;
        shuffle_l b1;
      ]
  in
  return (b1, b2)

let sign c = Int.compare c 0

let prop_tuple_order_matches_model =
  qtest "tuple order matches the model" ~count:2000 gen_binding_pair
    (fun (b1, b2) ->
      let flat = Tuple.compare (Tuple.of_list b1) (Tuple.of_list b2) in
      let model =
        Model.Tuple.compare (Model.Tuple.of_list b1) (Model.Tuple.of_list b2)
      in
      sign flat = sign model)

(* Two states over random schemes — the same scheme half the time, so
   the set operations do not always refuse — given as scheme and
   binding lists, from which both representations are built. *)
let gen_state_over attrs =
  let open QCheck2.Gen in
  list_size (int_range 0 8) (gen_bindings_over attrs)

let gen_state_pair =
  let open QCheck2.Gen in
  let* s1 = gen_subset in
  let* s2 = oneof [ return s1; gen_subset ] in
  let* rows1 = gen_state_over s1 and* rows2 = gen_state_over s2 in
  let* x = gen_subset in
  let* a = oneofl model_pool and* b = oneofl model_pool in
  return ((s1, rows1), (s2, rows2), x, [ (a, b) ])

let outcome f = match f () with v -> Ok v | exception Invalid_argument m -> Error m

let same_bindings b1 b2 =
  List.equal (fun (a, v) (a', v') -> Attr.equal a a' && Value.equal v v') b1 b2

(* A flat state and a model state agree when their schemes are equal
   and they list the same tuples in the same order. *)
let same_state r m =
  Attr.Set.equal (Relation.scheme r) (Model.Relation.scheme m)
  && List.equal same_bindings
       (List.map Tuple.bindings (Relation.tuples r))
       (List.map Model.Tuple.bindings (Model.Relation.tuples m))

let agree name same flat model =
  match (outcome flat, outcome model) with
  | Ok r, Ok m -> same r m || QCheck2.Test.fail_reportf "%s: results differ" name
  | Error e, Error e' ->
      e = e' || QCheck2.Test.fail_reportf "%s: %S vs %S" name e e'
  | Ok _, Error e -> QCheck2.Test.fail_reportf "%s: only the model raised %S" name e
  | Error e, Ok _ -> QCheck2.Test.fail_reportf "%s: only the flat state raised %S" name e

let prop_relation_matches_model =
  qtest "relation algebra matches the model" ~count:1000 gen_state_pair
    (fun ((s1, rows1), (s2, rows2), x, mapping) ->
      let set = Attr.Set.of_list in
      let make (s, rows) = Relation.make (set s) (List.map Tuple.of_list rows) in
      let mmake (s, rows) =
        Model.Relation.make (set s) (List.map Model.Tuple.of_list rows)
      in
      let r1 = make (s1, rows1) and r2 = make (s2, rows2) in
      let m1 = mmake (s1, rows1) and m2 = mmake (s2, rows2) in
      let state name f g = agree name same_state f g in
      let value name eq f g = agree name eq f g in
      (* Keep a tuple when its first binding is an even int or a string. *)
      let keep bindings =
        match bindings with
        | (_, Value.Int n) :: _ -> n mod 2 = 0
        | _ -> true
      in
      let probes = List.map Tuple.of_list rows2
      and mprobes = List.map Model.Tuple.of_list rows2 in
      state "make" (fun () -> r1) (fun () -> m1)
      && List.for_all2
           (fun tu mtu ->
             state "add" (fun () -> Relation.add tu r1)
               (fun () -> Model.Relation.add mtu m1)
             && value "mem" Bool.equal
                  (fun () -> Relation.mem tu r1)
                  (fun () -> Model.Relation.mem mtu m1))
           probes mprobes
      && state "union" (fun () -> Relation.union r1 r2)
           (fun () -> Model.Relation.union m1 m2)
      && state "inter" (fun () -> Relation.inter r1 r2)
           (fun () -> Model.Relation.inter m1 m2)
      && state "diff" (fun () -> Relation.diff r1 r2)
           (fun () -> Model.Relation.diff m1 m2)
      && state "project"
           (fun () -> Relation.project r1 (set x))
           (fun () -> Model.Relation.project m1 (set x))
      && state "select"
           (fun () -> Relation.select r1 (fun tu -> keep (Tuple.bindings tu)))
           (fun () ->
             Model.Relation.select m1 (fun tu -> keep (Model.Tuple.bindings tu)))
      && state "natural_join"
           (fun () -> Relation.natural_join r1 r2)
           (fun () -> Model.Relation.natural_join m1 m2)
      && state "semijoin"
           (fun () -> Relation.semijoin r1 r2)
           (fun () -> Model.Relation.semijoin m1 m2)
      && state "antijoin"
           (fun () -> Relation.antijoin r1 r2)
           (fun () -> Model.Relation.antijoin m1 m2)
      && state "rename"
           (fun () -> Relation.rename r1 mapping)
           (fun () -> Model.Relation.rename m1 mapping)
      && List.for_all
           (fun a ->
             value "distinct_values" (List.equal Value.equal)
               (fun () -> Relation.distinct_values r1 a)
               (fun () -> Model.Relation.distinct_values m1 a))
           model_pool
      && value "compare" Int.equal
           (fun () -> sign (Relation.compare r1 r2))
           (fun () -> sign (Model.Relation.compare m1 m2))
      && value "equal" Bool.equal
           (fun () -> Relation.equal r1 r2)
           (fun () -> Model.Relation.equal m1 m2)
      && value "digest" Int64.equal
           (fun () -> Relation.digest r1)
           (fun () -> Model.Relation.digest m1))

(* The error messages callers and logs see are part of the interface:
   the first re-bound attribute in list order, the conflicting
   attribute, and the offending tuple and scheme. *)
let test_error_messages () =
  let a = attr "A" and b = attr "B" in
  Alcotest.check_raises "first re-binding in list order"
    (Invalid_argument "Tuple.of_list: attribute A bound twice") (fun () ->
      ignore (Tuple.of_list [ (b, i 1); (a, i 1); (a, i 2); (b, i 2) ]));
  Alcotest.check_raises "merge conflict"
    (Invalid_argument "Tuple.merge: conflicting values for B") (fun () ->
      ignore (Tuple.merge (tu [ ("A", i 1); ("B", s "x") ]) (tu [ ("B", s "y") ])));
  let scheme = Attr.Set.of_string "AB" in
  Alcotest.check_raises "make: scheme mismatch"
    (Invalid_argument "Relation: tuple (A=1) is not over scheme AB") (fun () ->
      ignore (Relation.make scheme [ tu [ ("A", i 1); ("B", i 2) ]; tu [ ("A", i 1) ] ]));
  Alcotest.check_raises "make: wider tuple"
    (Invalid_argument "Relation: tuple (A=1, B=2, C=3) is not over scheme AB")
    (fun () ->
      ignore
        (Relation.make scheme [ tu [ ("A", i 1); ("B", i 2); ("C", i 3) ] ]));
  Alcotest.check_raises "add: scheme mismatch"
    (Invalid_argument "Relation: tuple (A=1, C=2) is not over scheme AB")
    (fun () ->
      ignore (Relation.add (tu [ ("A", i 1); ("C", i 2) ]) (Relation.empty scheme)))

(* ------------------------------------------------------------------ *)
(* Compiled kernels                                                     *)
(* ------------------------------------------------------------------ *)

(* The binding-list reference for the compiled merge and key: a merge
   walk over two sorted binding lists that names the least conflicting
   attribute, and the key as the common attributes' values in order. *)
let rec reference_merge b1 b2 =
  match (b1, b2) with
  | [], b | b, [] -> b
  | (a1, v1) :: r1, (a2, v2) :: r2 ->
      let c = Attr.compare a1 a2 in
      if c < 0 then (a1, v1) :: reference_merge r1 b2
      else if c > 0 then (a2, v2) :: reference_merge b1 r2
      else if Value.equal v1 v2 then (a1, v1) :: reference_merge r1 r2
      else
        invalid_arg
          (Printf.sprintf "Tuple.merge: conflicting values for %s"
             (Attr.to_string a1))

let reference_key common b =
  List.filter_map
    (fun (a, v) -> if Attr.Set.mem a common then Some v else None)
    b

(* A scheme is a bit mask over [model_pool], which is in attribute
   order; 0 is the empty scheme. *)
let mask_attrs m = List.filteri (fun k _ -> m land (1 lsl k) <> 0) model_pool
let mask_scheme m = Attr.Set.of_list (mask_attrs m)

(* One step of a kernel case: the two sides' schemes, whether each
   side is built over its scheme's shared header or by [Tuple.of_list]
   (a header of its own), and the values of the whole pool per side —
   the second side copies the first's half the time, so common
   attributes agree often enough to merge. *)
let gen_kernel_case =
  let open QCheck2.Gen in
  let gen_mask = frequency [ (1, return 0); (6, int_range 1 31) ] in
  let gen_pair =
    let* m1 = gen_mask in
    let* m2 =
      oneof
        [
          gen_mask;
          map (fun r -> m1 land r) gen_mask;
          map (fun r -> m1 lor r) gen_mask;
          return m1;
        ]
    in
    return (m1, m2)
  in
  let gen_vals = array_repeat 5 gen_model_value in
  let* p = gen_pair and* p' = gen_pair in
  list_size (int_range 1 12)
    (let* m1, m2 = frequency [ (3, return p); (1, return p') ] in
     let* shared1 = bool and* shared2 = bool in
     let* v1 = gen_vals and* v2 = gen_vals and* agree = bool in
     return (m1, m2, shared1, shared2, v1, if agree then v1 else v2))

(* One merger and one key extractor per common scheme run over the
   whole list, so the headers they see change in its middle. *)
let prop_compiled_kernels =
  qtest "compiled merge and key match a binding-list reference" ~count:500
    gen_kernel_case (fun steps ->
      let headers = Array.init 32 (fun m -> Tuple.header (mask_scheme m)) in
      let build m shared vals =
        let b =
          List.filteri (fun k _ -> m land (1 lsl k) <> 0)
            (List.combine model_pool (Array.to_list vals))
        in
        ( b,
          if shared then
            Tuple.of_values headers.(m) (Array.of_list (List.map snd b))
          else Tuple.of_list b )
      in
      let merge = Tuple.merger () in
      let keys = Hashtbl.create 4 in
      let key common =
        match Hashtbl.find_opt keys common with
        | Some k -> k
        | None ->
            let k = Tuple.key_extractor (mask_scheme common) in
            Hashtbl.add keys common k;
            k
      in
      let last = ref (-1, -1) and out_header = ref None in
      List.for_all
        (fun (m1, m2, shared1, shared2, v1, v2) ->
          let b1, t1 = build m1 shared1 v1 and b2, t2 = build m2 shared2 v2 in
          if !last <> (m1, m2) then out_header := None;
          last := (m1, m2);
          let common = m1 land m2 in
          let key_ok =
            List.equal Value.equal (key common t1)
              (reference_key (mask_scheme common) b1)
            && List.equal Value.equal (key common t2)
                 (reference_key (mask_scheme common) b2)
          in
          let merged =
            match
              ( outcome (fun () -> merge t1 t2),
                outcome (fun () -> reference_merge b1 b2) )
            with
            | Ok r, Ok b ->
                let physical =
                  if m2 land m1 = m2 then r == t1
                  else if m1 land m2 = m1 then r == t2
                  else
                    match !out_header with
                    | None ->
                        out_header := Some (Tuple.header_of r);
                        true
                    | Some h -> Tuple.header_of r == h
                in
                same_bindings (Tuple.bindings r) b
                && same_bindings (Tuple.bindings (Tuple.merge t1 t2)) b
                && physical
            | Error e, Error e' ->
                e = e' && outcome (fun () -> Tuple.merge t1 t2) = Error e
            | _ -> false
          in
          key_ok && merged
          || QCheck2.Test.fail_reportf "schemes %d and %d: key %b, merge %b" m1
               m2 key_ok merged)
        steps)

(* The named cases of the law above. *)
let test_compiled_merge_cases () =
  let merge = Tuple.merger () in
  let ab = tu [ ("A", i 1); ("B", i 2) ] and b = tu [ ("B", i 2) ] in
  Alcotest.(check bool) "empty with empty is the first" true
    (merge Tuple.empty Tuple.empty == Tuple.empty);
  Alcotest.(check bool) "a subset returns the superset" true (merge b ab == ab);
  Alcotest.(check bool) "a superset returns itself" true (merge ab b == ab);
  Alcotest.(check bool) "empty returns the other" true
    (merge Tuple.empty ab == ab);
  Alcotest.check_raises "conflict, after a reuse"
    (Invalid_argument "Tuple.merge: conflicting values for B") (fun () ->
      ignore (merge ab (tu [ ("B", i 3); ("C", i 4) ]));
      ignore (merge ab (tu [ ("B", i 3); ("C", i 5) ])));
  let r =
    Relation.natural_join
      (Relation.of_rows "AB" [ [ i 1; i 2 ]; [ i 2; i 2 ]; [ i 3; i 4 ] ])
      (Relation.of_rows "BC" [ [ i 2; i 5 ]; [ i 2; i 6 ]; [ i 4; i 7 ] ])
  in
  let h = Tuple.header_of (List.hd (Relation.tuples r)) in
  Alcotest.(check bool) "a join's rows share one header" true
    (Relation.for_all (fun t -> Tuple.header_of t == h) r)

(* Minor words per warm call of [f] over [n] calls, less the measuring
   loop's own: the first call, which compiles, is not counted. *)
let words_per_call f =
  f ();
  let n = 1000 in
  let loop g =
    let before = Gc.minor_words () in
    for _ = 1 to n do
      g ()
    done;
    Gc.minor_words () -. before
  in
  let idle = loop (fun () -> ()) in
  (loop f -. idle) /. float_of_int n

(* The per-tuple primitives allocate nothing, and a compiled merge only
   its result: one record (3 words) and one value array (width + 1). *)
let test_kernel_allocation () =
  let abc = Tuple.header (Attr.Set.of_string "ABC") in
  let ab = Tuple.header (Attr.Set.of_string "AB") in
  let bc = Tuple.header (Attr.Set.of_string "BC") in
  let t1 = Tuple.of_values abc [| i 1; i 2; i 3 |] in
  let t2 = Tuple.of_values abc [| i 1; i 2; i 4 |] in
  let u = Tuple.of_values ab [| i 1; i 2 |] in
  let v = Tuple.of_values bc [| i 2; i 5 |] in
  let words name expected f =
    Alcotest.(check (float 0.)) name expected (words_per_call f)
  in
  words "compare, shared header" 0. (fun () -> ignore (Tuple.compare t1 t2));
  words "compare, other headers" 0. (fun () -> ignore (Tuple.compare u v));
  let merge = Tuple.merger () in
  words "merge: the result only" 7. (fun () -> ignore (merge u v));
  words "merge into a superset" 0. (fun () -> ignore (merge t1 u));
  let key = Tuple.key_extractor (Attr.Set.of_string "AC") in
  words "key: the list only" 6. (fun () -> ignore (key t1))

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "mj_relation"
    [
      ( "attr",
        [
          Alcotest.test_case "make rejects empty" `Quick test_attr_make_empty;
          Alcotest.test_case "set of_string" `Quick test_attr_set_of_string;
          Alcotest.test_case "set dedup" `Quick test_attr_set_of_string_dedup;
          Alcotest.test_case "ordering" `Quick test_attr_order;
        ] );
      ( "value",
        [
          Alcotest.test_case "ordering" `Quick test_value_order;
          Alcotest.test_case "to_string" `Quick test_value_to_string;
        ] );
      ( "tuple",
        [
          Alcotest.test_case "duplicate attr" `Quick test_tuple_duplicate;
          Alcotest.test_case "restrict" `Quick test_tuple_restrict;
          Alcotest.test_case "restrict superset" `Quick
            test_tuple_restrict_superset;
          Alcotest.test_case "merge" `Quick test_tuple_merge;
          Alcotest.test_case "set/get" `Quick test_tuple_set_get;
        ] );
      ( "relation-construction",
        [
          Alcotest.test_case "of_rows" `Quick test_of_rows;
          Alcotest.test_case "of_rows bad width" `Quick test_of_rows_bad_width;
          Alcotest.test_case "of_rows dup attr" `Quick test_of_rows_dup_attr;
          Alcotest.test_case "empty scheme invalid" `Quick
            test_empty_scheme_invalid;
          Alcotest.test_case "duplicates collapse" `Quick
            test_duplicates_collapse;
        ] );
      ( "relation-algebra",
        [
          Alcotest.test_case "join example 1" `Quick test_join_example1;
          Alcotest.test_case "join disjoint = product" `Quick
            test_join_is_product_when_disjoint;
          Alcotest.test_case "product requires disjoint" `Quick
            test_product_requires_disjoint;
          Alcotest.test_case "join with empty" `Quick test_join_with_empty;
          Alcotest.test_case "project" `Quick test_project;
          Alcotest.test_case "project invalid" `Quick test_project_invalid;
          Alcotest.test_case "select" `Quick test_select;
          Alcotest.test_case "semijoin" `Quick test_semijoin;
          Alcotest.test_case "semijoin disjoint" `Quick test_semijoin_disjoint;
          Alcotest.test_case "antijoin" `Quick test_antijoin;
          Alcotest.test_case "set ops" `Quick test_set_ops;
          Alcotest.test_case "set ops scheme mismatch" `Quick
            test_set_ops_scheme_mismatch;
          Alcotest.test_case "rename" `Quick test_rename;
          Alcotest.test_case "rename not injective" `Quick
            test_rename_not_injective;
          Alcotest.test_case "rename wide scheme" `Quick
            test_rename_wide_scheme;
          Alcotest.test_case "distinct values" `Quick test_distinct_values;
        ] );
      ( "relation-properties",
        [
          prop_join_commutative;
          prop_join_associative;
          prop_join_bounded_by_product;
          prop_join_idempotent;
          prop_semijoin_shrinks;
          prop_semijoin_antijoin_partition;
          prop_project_cardinality;
          prop_join_contains_restrictions;
        ] );
      ( "fd",
        [
          Alcotest.test_case "closure" `Quick test_fd_closure;
          Alcotest.test_case "closure no fire" `Quick test_fd_closure_no_fire;
          Alcotest.test_case "implies" `Quick test_fd_implies;
          Alcotest.test_case "superkey/key" `Quick test_fd_superkey;
          Alcotest.test_case "candidate keys cycle" `Quick
            test_fd_candidate_keys;
          Alcotest.test_case "candidate keys composite" `Quick
            test_fd_candidate_keys_composite;
          Alcotest.test_case "minimal cover" `Quick test_fd_minimal_cover;
          Alcotest.test_case "minimal cover extraneous" `Quick
            test_fd_minimal_cover_extraneous;
          Alcotest.test_case "project" `Quick test_fd_project;
          Alcotest.test_case "holds_in" `Quick test_fd_holds_in;
          prop_closure_monotone;
          prop_closure_idempotent;
        ] );
      ( "chase",
        [
          Alcotest.test_case "classic two-scheme" `Quick
            test_chase_lossless_classic;
          Alcotest.test_case "three-way chain" `Quick test_chase_three_way;
          Alcotest.test_case "single scheme" `Quick test_chase_single_scheme;
          Alcotest.test_case "initial tableau" `Quick test_chase_initial_shape;
        ] );
      ( "database",
        [
          Alcotest.test_case "basics" `Quick test_database_basics;
          Alcotest.test_case "duplicate scheme" `Quick
            test_database_duplicate_scheme;
          Alcotest.test_case "join_all" `Quick test_database_join_all;
          Alcotest.test_case "restrict" `Quick test_database_restrict;
          Alcotest.test_case "replace" `Quick test_database_replace;
        ] );
      ( "consistency",
        [
          Alcotest.test_case "consistent pair" `Quick test_consistent_pair;
          Alcotest.test_case "semijoin reduce" `Quick test_semijoin_reduce;
          Alcotest.test_case "semijoin reduce, unconnected scheme" `Quick
            test_semijoin_reduce_unconnected;
          Alcotest.test_case "globally consistent" `Quick
            test_globally_consistent;
          Alcotest.test_case "dangling tuples" `Quick test_dangling_tuples;
          prop_reduce_preserves_join;
        ] );
      ( "digest",
        [
          Alcotest.test_case "fixed states" `Quick test_digest_fixed;
          Alcotest.test_case "row width is checked" `Quick
            test_digest_row_width;
          prop_digest_matches_reference;
        ] );
      ( "model",
        [
          prop_tuple_order_matches_model;
          prop_relation_matches_model;
          Alcotest.test_case "error messages" `Quick test_error_messages;
        ] );
      ( "kernels",
        [
          prop_compiled_kernels;
          Alcotest.test_case "compiled merge cases" `Quick
            test_compiled_merge_cases;
          Alcotest.test_case "allocation" `Quick test_kernel_allocation;
        ] );
    ]

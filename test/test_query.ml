(* Tests for the query languages: CQ (tableaux, evaluation,
   satisfiability, containment), UCQ, ∃FO⁺ (DNF expansion), FO
   (active-domain evaluation) and the Lemma 3.2 single-relation
   encoding. *)

open Ric_relational
open Ric_query

let relation_testable = Alcotest.testable Relation.pp Relation.equal
let v = Term.var
let i = Term.int

let schema =
  Schema.make
    [
      Schema.relation "E" [ Schema.attribute "src"; Schema.attribute "dst" ];
      Schema.relation "L" [ Schema.attribute "node"; Schema.attribute ~dom:Domain.boolean "flag" ];
    ]

let db =
  Database.of_list schema
    [
      ("E", Relation.of_int_rows [ [ 1; 2 ]; [ 2; 3 ]; [ 3; 1 ]; [ 1; 3 ] ]);
      ("L", Relation.of_int_rows [ [ 1; 0 ]; [ 2; 1 ]; [ 3; 1 ] ]);
    ]

(* ------------------------------------------------------------------ *)
(* CQ evaluation *)

let test_cq_single_atom () =
  let q = Cq.make ~head:[ v "x"; v "y" ] [ Atom.make "E" [ v "x"; v "y" ] ] in
  Alcotest.(check int) "all edges" 4 (Relation.cardinal (Cq.eval db q))

let test_cq_join () =
  (* two-step paths *)
  let q =
    Cq.make ~head:[ v "x"; v "z" ]
      [ Atom.make "E" [ v "x"; v "y" ]; Atom.make "E" [ v "y"; v "z" ] ]
  in
  let expected = Relation.of_int_rows [ [ 1; 3 ]; [ 2; 1 ]; [ 3; 2 ]; [ 3; 3 ]; [ 1; 1 ] ] in
  Alcotest.check relation_testable "paths" expected (Cq.eval db q)

let test_cq_constants () =
  let q = Cq.make ~head:[ v "y" ] [ Atom.make "E" [ i 1; v "y" ] ] in
  Alcotest.check relation_testable "successors of 1"
    (Relation.of_int_rows [ [ 2 ]; [ 3 ] ])
    (Cq.eval db q)

let test_cq_eqs () =
  (* E(x, y) ∧ x = y: no self loops in db *)
  let q = Cq.make ~eqs:[ (v "x", v "y") ] ~head:[ v "x" ] [ Atom.make "E" [ v "x"; v "y" ] ] in
  Alcotest.(check bool) "no self loop" true (Relation.is_empty (Cq.eval db q));
  (* equality to a constant acts as selection *)
  let q2 =
    Cq.make ~eqs:[ (v "x", i 2) ] ~head:[ v "y" ] [ Atom.make "E" [ v "x"; v "y" ] ]
  in
  Alcotest.check relation_testable "selection" (Relation.of_int_rows [ [ 3 ] ]) (Cq.eval db q2)

let test_cq_neqs () =
  let q =
    Cq.make ~neqs:[ (v "x", i 1) ] ~head:[ v "x"; v "y" ] [ Atom.make "E" [ v "x"; v "y" ] ]
  in
  Alcotest.(check int) "x ≠ 1" 2 (Relation.cardinal (Cq.eval db q))

let test_cq_boolean () =
  let yes = Cq.boolean [ Atom.make "E" [ i 1; i 2 ] ] in
  let no = Cq.boolean [ Atom.make "E" [ i 2; i 2 ] ] in
  Alcotest.(check bool) "holds" true (Cq.holds db yes);
  Alcotest.(check bool) "does not hold" false (Cq.holds db no);
  Alcotest.(check int) "nonempty boolean answer is the 0-tuple" 1
    (Relation.cardinal (Cq.eval db yes))

let test_cq_contradiction () =
  let q =
    Cq.make
      ~eqs:[ (v "x", i 1); (v "x", i 2) ]
      ~head:[ v "x" ]
      [ Atom.make "E" [ v "x"; v "y" ] ]
  in
  Alcotest.(check bool) "eq contradiction" true (Relation.is_empty (Cq.eval db q));
  let q2 = Cq.make ~neqs:[ (v "x", v "x") ] ~head:[ v "x" ] [ Atom.make "E" [ v "x"; v "y" ] ] in
  Alcotest.(check bool) "x ≠ x" true (Relation.is_empty (Cq.eval db q2))

let test_cq_unsafe () =
  let q = Cq.make ~head:[ v "z" ] [ Atom.make "E" [ v "x"; v "y" ] ] in
  Alcotest.(check bool) "unsafe raises" true
    (try
       ignore (Cq.eval db q);
       false
     with Invalid_argument _ -> true)

let test_cq_repeated_var () =
  let d2 = Database.add_tuple db "E" (Tuple.of_ints [ 5; 5 ]) in
  let q = Cq.make ~head:[ v "x" ] [ Atom.make "E" [ v "x"; v "x" ] ] in
  Alcotest.check relation_testable "self loops" (Relation.of_int_rows [ [ 5 ] ]) (Cq.eval d2 q)

(* ------------------------------------------------------------------ *)
(* Satisfiability *)

let test_cq_satisfiable () =
  let sat = Cq.make ~neqs:[ (v "x", v "y") ] ~head:[ v "x" ] [ Atom.make "E" [ v "x"; v "y" ] ] in
  Alcotest.(check bool) "neq satisfiable" true (Cq.satisfiable schema sat);
  let unsat =
    Cq.make
      ~eqs:[ (v "x", v "y") ]
      ~neqs:[ (v "x", v "y") ]
      ~head:[ v "x" ]
      [ Atom.make "E" [ v "x"; v "y" ] ]
  in
  Alcotest.(check bool) "eq/neq clash" false (Cq.satisfiable schema unsat)

let test_cq_satisfiable_finite_domain () =
  (* three pairwise-distinct values in the two-element boolean domain *)
  let q =
    Cq.make
      ~neqs:[ (v "a", v "b"); (v "b", v "c"); (v "a", v "c") ]
      ~head:[ v "a" ]
      [
        Atom.make "L" [ v "x"; v "a" ];
        Atom.make "L" [ v "y"; v "b" ];
        Atom.make "L" [ v "z"; v "c" ];
      ]
  in
  Alcotest.(check bool) "pigeonhole in d_f" false (Cq.satisfiable schema q);
  let q2 =
    Cq.make ~neqs:[ (v "a", v "b") ] ~head:[ v "a" ]
      [ Atom.make "L" [ v "x"; v "a" ]; Atom.make "L" [ v "y"; v "b" ] ]
  in
  Alcotest.(check bool) "two distinct fit" true (Cq.satisfiable schema q2)

(* ------------------------------------------------------------------ *)
(* Containment (Chandra–Merlin) *)

let test_cq_containment () =
  let paths2 =
    Cq.make ~head:[ v "x"; v "z" ]
      [ Atom.make "E" [ v "x"; v "y" ]; Atom.make "E" [ v "y"; v "z" ] ]
  in
  let relaxed =
    Cq.make ~head:[ v "x"; v "z" ]
      [ Atom.make "E" [ v "x"; v "w" ]; Atom.make "E" [ v "u"; v "z" ] ]
  in
  Alcotest.(check bool) "2-paths ⊆ relaxed" true (Cq.contained_in schema paths2 relaxed);
  Alcotest.(check bool) "relaxed ⊄ 2-paths" false (Cq.contained_in schema relaxed paths2);
  Alcotest.(check bool) "self containment" true (Cq.contained_in schema paths2 paths2)

let test_cq_containment_redundant_atom () =
  let q1 = Cq.make ~head:[ v "x" ] [ Atom.make "E" [ v "x"; v "y" ] ] in
  let q2 =
    Cq.make ~head:[ v "x" ] [ Atom.make "E" [ v "x"; v "y" ]; Atom.make "E" [ v "x"; v "y'" ] ]
  in
  Alcotest.(check bool) "equivalent modulo redundancy" true
    (Cq.contained_in schema q1 q2 && Cq.contained_in schema q2 q1)

(* ------------------------------------------------------------------ *)
(* Tableau round trips *)

let test_tableau_roundtrip () =
  let q =
    Cq.make
      ~eqs:[ (v "y", i 2) ]
      ~neqs:[ (v "x", v "z") ]
      ~head:[ v "x" ]
      [ Atom.make "E" [ v "x"; v "y" ]; Atom.make "E" [ v "y"; v "z" ] ]
  in
  let tab = Option.get (Tableau.of_cq schema q) in
  Alcotest.check relation_testable "tableau preserves semantics" (Cq.eval db q)
    (Cq.eval db (Tableau.to_cq tab));
  Alcotest.(check int) "patterns" 2 (List.length tab.Tableau.patterns)

let test_tableau_instantiate () =
  let q = Cq.make ~head:[ v "x" ] [ Atom.make "E" [ v "x"; v "y" ] ] in
  let tab = Option.get (Tableau.of_cq schema q) in
  let mu = Valuation.of_list [ ("x", Value.int 7); ("y", Value.int 8) ] in
  let delta = Tableau.instantiate tab mu in
  Alcotest.(check int) "one tuple" 1 (Database.total_tuples delta);
  Alcotest.(check bool) "summary" true
    (Tuple.equal (Tableau.summary_tuple tab mu) (Tuple.of_ints [ 7 ]))

(* ------------------------------------------------------------------ *)
(* UCQ *)

let test_ucq_union () =
  let q1 = Cq.make ~head:[ v "x" ] [ Atom.make "E" [ v "x"; i 2 ] ] in
  let q2 = Cq.make ~head:[ v "x" ] [ Atom.make "E" [ v "x"; i 3 ] ] in
  let u = Ucq.make [ q1; q2 ] in
  Alcotest.check relation_testable "union"
    (Relation.of_int_rows [ [ 1 ]; [ 2 ] ])
    (Ucq.eval db u)

let test_ucq_arity_mismatch () =
  let q1 = Cq.make ~head:[ v "x" ] [ Atom.make "E" [ v "x"; v "y" ] ] in
  let q2 = Cq.make ~head:[ v "x"; v "y" ] [ Atom.make "E" [ v "x"; v "y" ] ] in
  Alcotest.(check bool) "rejected" true
    (try
       ignore (Ucq.make [ q1; q2 ]);
       false
     with Invalid_argument _ -> true)

let test_ucq_containment () =
  let q1 = Cq.make ~head:[ v "x" ] [ Atom.make "E" [ v "x"; i 2 ] ] in
  let q2 = Cq.make ~head:[ v "x" ] [ Atom.make "E" [ v "x"; v "y" ] ] in
  Alcotest.(check bool) "disjunct-wise" true (Ucq.contained_in schema [ q1 ] [ q2; q1 ])

(* ------------------------------------------------------------------ *)
(* ∃FO⁺ *)

let test_efo_dnf () =
  let f =
    Efo.And
      ( Efo.Atom (Atom.make "E" [ v "x"; v "y" ]),
        Efo.Or (Efo.Eq (v "y", i 2), Efo.Eq (v "y", i 3)) )
  in
  let q = Efo.make ~head:[ v "x"; v "y" ] f in
  Alcotest.(check int) "two disjuncts" 2 (Efo.disjunct_count q);
  Alcotest.check relation_testable "eval"
    (Relation.of_int_rows [ [ 1; 2 ]; [ 2; 3 ]; [ 1; 3 ] ])
    (Efo.eval db q)

let test_efo_shadowing () =
  (* ∃y (E(x,y) ∧ ∃y E(y,x)) — inner y must not capture outer y *)
  let f =
    Efo.Exists
      ( [ "y" ],
        Efo.And
          ( Efo.Atom (Atom.make "E" [ v "x"; v "y" ]),
            Efo.Exists ([ "y" ], Efo.Atom (Atom.make "E" [ v "y"; v "x" ])) ) )
  in
  let q = Efo.make ~head:[ v "x" ] f in
  Alcotest.check relation_testable "shadowing"
    (Relation.of_int_rows [ [ 1 ]; [ 2 ]; [ 3 ] ])
    (Efo.eval db q)

let test_efo_of_cq_preserves () =
  let q =
    Cq.make ~neqs:[ (v "x", i 1) ] ~head:[ v "x"; v "y" ] [ Atom.make "E" [ v "x"; v "y" ] ]
  in
  Alcotest.check relation_testable "of_cq" (Cq.eval db q) (Efo.eval db (Efo.of_cq q))

(* ------------------------------------------------------------------ *)
(* FO *)

let test_fo_negation () =
  let f =
    Fo.Exists
      ( [ "y" ],
        Fo.And
          ( Fo.Atom (Atom.make "E" [ v "x"; v "y" ]),
            Fo.Not (Fo.Atom (Atom.make "E" [ v "x"; i 1 ])) ) )
  in
  let q = Fo.make ~head:[ v "x" ] f in
  Alcotest.check relation_testable "negation"
    (Relation.of_int_rows [ [ 1 ]; [ 2 ] ])
    (Fo.eval db q)

let test_fo_universal () =
  (* nodes x with an outgoing edge such that every successor is
     labelled 1 *)
  let f =
    Fo.And
      ( Fo.Exists ([ "w" ], Fo.Atom (Atom.make "E" [ v "x"; v "w" ])),
        Fo.Forall
          ( [ "y" ],
            Fo.Or
              ( Fo.Not (Fo.Atom (Atom.make "E" [ v "x"; v "y" ])),
                Fo.Atom (Atom.make "L" [ v "y"; i 1 ]) ) ) )
  in
  let q = Fo.make ~head:[ v "x" ] f in
  Alcotest.check relation_testable "universal"
    (Relation.of_int_rows [ [ 1 ]; [ 2 ] ])
    (Fo.eval db q)

let test_fo_free_var_check () =
  Alcotest.(check bool) "free var rejected" true
    (try
       ignore (Fo.make ~head:[] (Fo.Atom (Atom.make "E" [ v "x"; v "y" ])));
       false
     with Invalid_argument _ -> true)

let test_fo_of_cq_agrees () =
  let q =
    Cq.make ~neqs:[ (v "x", v "z") ] ~head:[ v "x" ]
      [ Atom.make "E" [ v "x"; v "y" ]; Atom.make "E" [ v "y"; v "z" ] ]
  in
  Alcotest.check relation_testable "FO view of CQ" (Cq.eval db q) (Fo.eval db (Fo.of_cq q))

(* ------------------------------------------------------------------ *)
(* Lemma 3.2: single-relation encoding *)

let test_single_rel_lemma () =
  let enc = Single_rel.encode schema in
  let fd = Single_rel.encode_db enc db in
  let queries =
    [
      Cq.make ~head:[ v "x"; v "y" ] [ Atom.make "E" [ v "x"; v "y" ] ];
      Cq.make ~head:[ v "x"; v "z" ]
        [ Atom.make "E" [ v "x"; v "y" ]; Atom.make "E" [ v "y"; v "z" ] ];
      Cq.make ~head:[ v "n" ] [ Atom.make "L" [ v "n"; i 1 ]; Atom.make "E" [ v "n"; v "m" ] ];
    ]
  in
  List.iteri
    (fun idx q ->
      Alcotest.check relation_testable
        (Printf.sprintf "Q%d(D) = fQ(Q%d)(fD(D))" idx idx)
        (Cq.eval db q)
        (Cq.eval fd (Single_rel.encode_cq enc q)))
    queries

(* ------------------------------------------------------------------ *)
(* Properties *)

let small_db_gen =
  QCheck2.Gen.(
    map
      (fun rows ->
        Database.of_list schema
          [ ("E", Relation.of_tuples (List.map (fun (a, b) -> Tuple.of_ints [ a; b ]) rows)) ])
      (list_size (int_bound 6) (pair (int_bound 3) (int_bound 3))))

let prop_efo_fo_equiv =
  QCheck2.Test.make ~name:"∃FO⁺ DNF expansion agrees with FO semantics" ~count:60 small_db_gen
    (fun d ->
      let f =
        Efo.Or
          ( Efo.And (Efo.Atom (Atom.make "E" [ v "x"; v "y" ]), Efo.Neq (v "x", i 0)),
            Efo.And (Efo.Atom (Atom.make "E" [ v "y"; v "x" ]), Efo.Eq (v "y", i 1)) )
      in
      let q = Efo.make ~head:[ v "x" ] f in
      Relation.equal (Efo.eval d q) (Fo.eval d (Fo.of_efo q)))

let prop_cq_monotone =
  QCheck2.Test.make ~name:"CQ evaluation is monotone" ~count:60
    QCheck2.Gen.(pair small_db_gen small_db_gen)
    (fun (d1, d2) ->
      let u = Database.union d1 d2 in
      let q =
        Cq.make ~head:[ v "x"; v "z" ]
          [ Atom.make "E" [ v "x"; v "y" ]; Atom.make "E" [ v "y"; v "z" ] ]
      in
      Relation.subset (Cq.eval d1 q) (Cq.eval u q))

let prop_match_engine_naive_equiv =
  QCheck2.Test.make ~name:"greedy atom order agrees with naive order" ~count:60 small_db_gen
    (fun d ->
      let atoms = [ Atom.make "E" [ v "x"; v "y" ]; Atom.make "E" [ v "y"; v "z" ] ] in
      let lookup r = try Database.relation d r with Not_found -> Relation.empty in
      let run naive =
        let out = ref [] in
        let (_ : bool) =
          Match_engine.solve ~lookup ~naive atoms (fun valn ->
              out := valn :: !out;
              false)
        in
        List.sort_uniq Valuation.compare !out
      in
      run true = run false)

let prop_containment_semantic =
  (* if the containment test says q1 ⊆ q2, evaluation agrees on random
     databases *)
  QCheck2.Test.make ~name:"syntactic containment implies semantic containment" ~count:60
    small_db_gen
    (fun d ->
      let q1 =
        Cq.make ~head:[ v "x" ]
          [ Atom.make "E" [ v "x"; v "y" ]; Atom.make "E" [ v "y"; v "x" ] ]
      in
      let q2 = Cq.make ~head:[ v "x" ] [ Atom.make "E" [ v "x"; v "y" ] ] in
      (not (Cq.contained_in schema q1 q2)) || Relation.subset (Cq.eval d q1) (Cq.eval d q2))

let properties =
  List.map QCheck_alcotest.to_alcotest
    [ prop_efo_fo_equiv; prop_cq_monotone; prop_match_engine_naive_equiv;
      prop_containment_semantic ]

let () =
  Alcotest.run "query"
    [
      ( "cq",
        [
          Alcotest.test_case "single atom" `Quick test_cq_single_atom;
          Alcotest.test_case "join" `Quick test_cq_join;
          Alcotest.test_case "constants" `Quick test_cq_constants;
          Alcotest.test_case "equalities" `Quick test_cq_eqs;
          Alcotest.test_case "inequalities" `Quick test_cq_neqs;
          Alcotest.test_case "boolean" `Quick test_cq_boolean;
          Alcotest.test_case "contradictions" `Quick test_cq_contradiction;
          Alcotest.test_case "unsafe" `Quick test_cq_unsafe;
          Alcotest.test_case "repeated variable" `Quick test_cq_repeated_var;
        ] );
      ( "satisfiability",
        [
          Alcotest.test_case "basic" `Quick test_cq_satisfiable;
          Alcotest.test_case "finite domains" `Quick test_cq_satisfiable_finite_domain;
        ] );
      ( "containment",
        [
          Alcotest.test_case "chandra-merlin" `Quick test_cq_containment;
          Alcotest.test_case "redundant atom" `Quick test_cq_containment_redundant_atom;
        ] );
      ( "tableau",
        [
          Alcotest.test_case "roundtrip" `Quick test_tableau_roundtrip;
          Alcotest.test_case "instantiate" `Quick test_tableau_instantiate;
        ] );
      ( "ucq",
        [
          Alcotest.test_case "union" `Quick test_ucq_union;
          Alcotest.test_case "arity mismatch" `Quick test_ucq_arity_mismatch;
          Alcotest.test_case "containment" `Quick test_ucq_containment;
        ] );
      ( "efo",
        [
          Alcotest.test_case "dnf" `Quick test_efo_dnf;
          Alcotest.test_case "shadowing" `Quick test_efo_shadowing;
          Alcotest.test_case "of_cq" `Quick test_efo_of_cq_preserves;
        ] );
      ( "fo",
        [
          Alcotest.test_case "negation" `Quick test_fo_negation;
          Alcotest.test_case "universal" `Quick test_fo_universal;
          Alcotest.test_case "free variables" `Quick test_fo_free_var_check;
          Alcotest.test_case "of_cq" `Quick test_fo_of_cq_agrees;
        ] );
      ( "single-relation (Lemma 3.2)",
        [ Alcotest.test_case "lemma" `Quick test_single_rel_lemma ] );
      ("properties", properties);
    ]

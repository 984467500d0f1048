(* Tests for containment constraints, INDs, the integrity-constraint
   classes, and — centrally — Proposition 2.1: each integrity
   constraint is satisfied iff its containment-constraint translation
   is, validated on random databases. *)

open Ric_relational
open Ric_query
open Ric_constraints

let v = Term.var

let schema =
  Schema.make
    [
      Schema.relation "R"
        [ Schema.attribute "a"; Schema.attribute "b"; Schema.attribute "c" ];
      Schema.relation "S" [ Schema.attribute "x"; Schema.attribute "y" ];
    ]

let master_schema =
  Schema.make [ Schema.relation "M" [ Schema.attribute "m1"; Schema.attribute "m2" ] ]

let master =
  Database.of_list master_schema [ ("M", Relation.of_int_rows [ [ 1; 2 ]; [ 3; 4 ] ]) ]

let db rows_r rows_s =
  Database.of_list schema
    [ ("R", Relation.of_int_rows rows_r); ("S", Relation.of_int_rows rows_s) ]

(* ------------------------------------------------------------------ *)
(* Containment constraints *)

let test_cc_holds () =
  let cc =
    Containment.make ~name:"c"
      (Lang.Q_cq (Cq.make ~head:[ v "x"; v "y" ] [ Atom.make "S" [ v "x"; v "y" ] ]))
      (Projection.proj "M" [ 0; 1 ])
  in
  Alcotest.(check bool) "subset holds" true
    (Containment.holds ~db:(db [] [ [ 1; 2 ] ]) ~master cc);
  Alcotest.(check bool) "violation detected" false
    (Containment.holds ~db:(db [] [ [ 9; 9 ] ]) ~master cc);
  (match Containment.violation ~db:(db [] [ [ 9; 9 ] ]) ~master cc with
   | Some t -> Alcotest.(check bool) "witness tuple" true (Tuple.equal t (Tuple.of_ints [ 9; 9 ]))
   | None -> Alcotest.fail "expected a violation witness")

let test_cc_empty_rhs () =
  let cc =
    Containment.make ~name:"noloop"
      (Lang.Q_cq (Cq.make ~head:[ v "x" ] [ Atom.make "S" [ v "x"; v "x" ] ]))
      Projection.Empty
  in
  Alcotest.(check bool) "no loops" true (Containment.holds ~db:(db [] [ [ 1; 2 ] ]) ~master cc);
  Alcotest.(check bool) "loop violates" false
    (Containment.holds ~db:(db [] [ [ 5; 5 ] ]) ~master cc)

let test_cc_arity_mismatch () =
  Alcotest.(check bool) "mismatch rejected" true
    (try
       ignore
         (Containment.make
            (Lang.Q_cq (Cq.make ~head:[ v "x" ] [ Atom.make "S" [ v "x"; v "y" ] ]))
            (Projection.proj "M" [ 0; 1 ]));
       false
     with Invalid_argument _ -> true)

let test_cc_fo_lhs () =
  (* an FO containment constraint: S tuples whose partner is absent *)
  let q =
    Fo.make ~head:[ v "x" ]
      (Fo.Exists
         ( [ "y" ],
           Fo.And
             ( Fo.Atom (Atom.make "S" [ v "x"; v "y" ]),
               Fo.Not (Fo.Atom (Atom.make "S" [ v "y"; v "x" ])) ) ))
  in
  let cc = Containment.make ~name:"sym" (Lang.Q_fo q) Projection.Empty in
  Alcotest.(check bool) "not monotone" false (Containment.lhs_monotone cc);
  Alcotest.(check bool) "symmetric ok" true
    (Containment.holds ~db:(db [] [ [ 1; 2 ]; [ 2; 1 ] ]) ~master cc);
  Alcotest.(check bool) "asymmetric violates" false
    (Containment.holds ~db:(db [] [ [ 1; 2 ] ]) ~master cc)

(* ------------------------------------------------------------------ *)
(* INDs *)

let test_ind () =
  let ind = Ind.make ~name:"i" ~rel:"S" ~cols:[ 1 ] (Projection.proj "M" [ 0 ]) in
  Alcotest.(check bool) "holds" true (Ind.holds ~db:(db [] [ [ 7; 1 ] ]) ~master ind);
  Alcotest.(check bool) "fails" false (Ind.holds ~db:(db [] [ [ 7; 9 ] ]) ~master ind);
  Alcotest.(check bool) "covers" true (Ind.covers ind ~rel:"S" ~col:1);
  Alcotest.(check bool) "does not cover" false (Ind.covers ind ~rel:"S" ~col:0)

let test_ind_to_cc_agrees () =
  let ind = Ind.make ~rel:"S" ~cols:[ 0; 1 ] (Projection.proj "M" [ 0; 1 ]) in
  let cc = Ind.to_cc schema ind in
  List.iter
    (fun rows ->
      let d = db [] rows in
      Alcotest.(check bool)
        (Printf.sprintf "agree on %d rows" (List.length rows))
        (Ind.holds ~db:d ~master ind)
        (Containment.holds ~db:d ~master cc))
    [ []; [ [ 1; 2 ] ]; [ [ 1; 2 ]; [ 3; 4 ] ]; [ [ 1; 2 ]; [ 2; 1 ] ]; [ [ 0; 0 ] ] ]

(* ------------------------------------------------------------------ *)
(* Integrity constraints: direct checkers *)

let fd_ab = Fd.make ~rel:"R" ~lhs:[ 0 ] ~rhs:[ 1 ] ()

let test_fd () =
  Alcotest.(check bool) "fd holds" true (Fd.holds (db [ [ 1; 2; 3 ]; [ 1; 2; 4 ] ] []) fd_ab);
  Alcotest.(check bool) "fd fails" false (Fd.holds (db [ [ 1; 2; 3 ]; [ 1; 5; 4 ] ] []) fd_ab);
  (match Fd.violation (db [ [ 1; 2; 3 ]; [ 1; 5; 4 ] ] []) fd_ab with
   | Some _ -> ()
   | None -> Alcotest.fail "expected FD violation witness")

let cfd =
  Cfd.make ~rel:"R" ~lhs:[ 0 ] ~lhs_pattern:[ (0, Value.int 1) ] ~rhs:[ 1 ]
    ~rhs_pattern:[ (1, Value.int 2) ] ()

let test_cfd () =
  (* pattern: rows with a = 1 must have b = 2 *)
  Alcotest.(check bool) "matching rows ok" true (Cfd.holds (db [ [ 1; 2; 9 ]; [ 5; 7; 0 ] ] []) cfd);
  Alcotest.(check bool) "single-tuple violation" false (Cfd.holds (db [ [ 1; 3; 9 ] ] []) cfd);
  Alcotest.(check bool) "non-matching rows unconstrained" true
    (Cfd.holds (db [ [ 5; 3; 9 ]; [ 5; 4; 0 ] ] []) cfd)

let test_cfd_pairwise () =
  let plain = Cfd.of_fd (Fd.make ~rel:"R" ~lhs:[ 0 ] ~rhs:[ 1; 2 ] ()) in
  Alcotest.(check bool) "pair violation" false
    (Cfd.holds (db [ [ 1; 2; 3 ]; [ 1; 2; 4 ] ] []) plain);
  Alcotest.(check bool) "pair ok" true (Cfd.holds (db [ [ 1; 2; 3 ]; [ 2; 2; 4 ] ] []) plain)

let denial_no_loop =
  Denial.make (Cq.boolean [ Atom.make "S" [ v "x"; v "x" ] ])

let test_denial () =
  Alcotest.(check bool) "holds" true (Denial.holds (db [] [ [ 1; 2 ] ]) denial_no_loop);
  Alcotest.(check bool) "violated" false (Denial.holds (db [] [ [ 3; 3 ] ]) denial_no_loop);
  Alcotest.(check bool) "witness" true
    (Option.is_some (Denial.violation (db [] [ [ 3; 3 ] ]) denial_no_loop))

let cind =
  Cind.make ~lhs:("S", [ 0 ]) ~rhs:("R", [ 0 ]) ~rhs_pattern:[ (1, Value.int 7) ] ()

let test_cind () =
  (* every S.x must appear as R.a with b = 7 *)
  Alcotest.(check bool) "holds" true (Cind.holds (db [ [ 1; 7; 0 ] ] [ [ 1; 5 ] ]) cind);
  Alcotest.(check bool) "pattern mismatch" false
    (Cind.holds (db [ [ 1; 8; 0 ] ] [ [ 1; 5 ] ]) cind);
  Alcotest.(check bool) "missing partner" false (Cind.holds (db [] [ [ 1; 5 ] ]) cind)

(* ------------------------------------------------------------------ *)
(* Proposition 2.1: translations agree with direct checkers *)

let empty_master = Database.empty (Schema.make [])

let check_translation ~name direct ccs d =
  Alcotest.(check bool) name (direct d) (Containment.holds_all ~db:d ~master:empty_master ccs)

let random_db seed size =
  let state = ref (seed land 0x3FFFFFFF) in
  let rand bound =
    state := (!state * 1103515245 + 12345) land 0x3FFFFFFF;
    !state mod bound
  in
  let rows n arity = List.init n (fun _ -> List.init arity (fun _ -> rand 3)) in
  db (rows size 3) (rows size 2)

let test_translate_fd () =
  let ccs = Translate.of_fd schema fd_ab in
  for seed = 1 to 40 do
    check_translation
      ~name:(Printf.sprintf "fd seed %d" seed)
      (fun d -> Fd.holds d fd_ab)
      ccs (random_db seed (seed mod 5))
  done

let test_translate_cfd () =
  let ccs = Translate.of_cfd schema cfd in
  for seed = 1 to 40 do
    check_translation
      ~name:(Printf.sprintf "cfd seed %d" seed)
      (fun d -> Cfd.holds d cfd)
      ccs (random_db seed (seed mod 5))
  done

let test_translate_cfd_multi_rhs () =
  let c = Cfd.of_fd (Fd.make ~rel:"R" ~lhs:[ 0; 1 ] ~rhs:[ 2 ] ()) in
  let ccs = Translate.of_cfd schema c in
  for seed = 50 to 90 do
    check_translation
      ~name:(Printf.sprintf "cfd2 seed %d" seed)
      (fun d -> Cfd.holds d c)
      ccs (random_db seed (seed mod 6))
  done

let test_translate_denial () =
  let cc = Translate.of_denial denial_no_loop in
  for seed = 1 to 40 do
    check_translation
      ~name:(Printf.sprintf "denial seed %d" seed)
      (fun d -> Denial.holds d denial_no_loop)
      [ cc ] (random_db seed (seed mod 5))
  done

let test_translate_denial_with_neq () =
  (* at most one S row per x: S(x,y) ∧ S(x,y') ∧ y ≠ y' forbidden *)
  let dn =
    Denial.make
      (Cq.boolean
         ~neqs:[ (v "y", v "y'") ]
         [ Atom.make "S" [ v "x"; v "y" ]; Atom.make "S" [ v "x"; v "y'" ] ])
  in
  let cc = Translate.of_denial dn in
  for seed = 1 to 40 do
    check_translation
      ~name:(Printf.sprintf "denial-neq seed %d" seed)
      (fun d -> Denial.holds d dn)
      [ cc ] (random_db seed (seed mod 5))
  done

let test_translate_cind () =
  let cc = Translate.of_cind schema cind in
  for seed = 1 to 40 do
    check_translation
      ~name:(Printf.sprintf "cind seed %d" seed)
      (fun d -> Cind.holds d cind)
      [ cc ] (random_db seed (seed mod 4))
  done

let test_translate_cind_plain_ind () =
  (* a CIND with no patterns is a plain IND between database relations *)
  let c = Cind.make ~lhs:("S", [ 0; 1 ]) ~rhs:("R", [ 0; 1 ]) () in
  let cc = Translate.of_cind schema c in
  for seed = 1 to 40 do
    check_translation
      ~name:(Printf.sprintf "cind-ind seed %d" seed)
      (fun d -> Cind.holds d c)
      [ cc ] (random_db seed (seed mod 4))
  done

(* The paper's example CFD: dept = "BU" ⇒ eid → cid on Supt. *)
let test_paper_cfd_example () =
  let supt_schema =
    Schema.make
      [ Schema.relation "Supt" [ Schema.attribute "eid"; Schema.attribute "dept"; Schema.attribute "cid" ] ]
  in
  let c =
    Cfd.make ~rel:"Supt" ~lhs:[ 0; 1 ] ~lhs_pattern:[ (1, Value.str "BU") ] ~rhs:[ 2 ] ()
  in
  let mk rows =
    Database.of_list supt_schema [ ("Supt", Relation.of_str_rows rows) ]
  in
  let ccs = Translate.of_cfd supt_schema c in
  let ok = mk [ [ "e1"; "BU"; "c1" ]; [ "e1"; "AC"; "c2" ]; [ "e2"; "AC"; "c3" ]; [ "e2"; "AC"; "c4" ] ] in
  let bad = mk [ [ "e1"; "BU"; "c1" ]; [ "e1"; "BU"; "c2" ] ] in
  Alcotest.(check bool) "BU key holds" true (Cfd.holds ok c);
  Alcotest.(check bool) "translation agrees (ok)" true
    (Containment.holds_all ~db:ok ~master:empty_master ccs);
  Alcotest.(check bool) "BU key violated" false (Cfd.holds bad c);
  Alcotest.(check bool) "translation agrees (bad)" false
    (Containment.holds_all ~db:bad ~master:empty_master ccs)

(* ------------------------------------------------------------------ *)
(* Constraint-set normalisation *)

let test_optimize_unsat_dropped () =
  let q =
    Cq.make
      ~eqs:[ (v "x", Term.int 1); (v "x", Term.int 2) ]
      ~head:[ v "x" ]
      [ Atom.make "S" [ v "x"; v "y" ] ]
  in
  let cc = Containment.make ~name:"unsat" (Lang.Q_cq q) Projection.Empty in
  Alcotest.(check int) "dropped" 0 (List.length (Optimize.normalize schema [ cc ]))

let test_optimize_subsumption () =
  (* q1 (a self-join pattern) is contained in q2 (any S row); with the
     same target the specific one is redundant *)
  let q1 =
    Cq.make ~head:[ v "x" ]
      [ Atom.make "S" [ v "x"; v "y" ]; Atom.make "S" [ v "y"; v "x" ] ]
  in
  let q2 = Cq.make ~head:[ v "x" ] [ Atom.make "S" [ v "x"; v "y" ] ] in
  let cc1 = Containment.make ~name:"specific" (Lang.Q_cq q1) (Projection.proj "M" [ 0 ]) in
  let cc2 = Containment.make ~name:"general" (Lang.Q_cq q2) (Projection.proj "M" [ 0 ]) in
  let kept = Optimize.normalize schema [ cc1; cc2 ] in
  Alcotest.(check int) "one survives" 1 (List.length kept);
  Alcotest.(check string) "the general one" "general"
    (List.hd kept).Containment.cc_name

let test_optimize_different_targets_kept () =
  let q = Cq.make ~head:[ v "x" ] [ Atom.make "S" [ v "x"; v "y" ] ] in
  let cc1 = Containment.make ~name:"a" (Lang.Q_cq q) (Projection.proj "M" [ 0 ]) in
  let cc2 = Containment.make ~name:"b" (Lang.Q_cq q) (Projection.proj "M" [ 1 ]) in
  Alcotest.(check int) "both kept" 2 (List.length (Optimize.normalize schema [ cc1; cc2 ]))

let test_optimize_duplicates () =
  let q = Cq.make ~head:[ v "x" ] [ Atom.make "S" [ v "x"; v "y" ] ] in
  let cc name = Containment.make ~name (Lang.Q_cq q) (Projection.proj "M" [ 0 ]) in
  Alcotest.(check int) "one of two equals" 1
    (List.length (Optimize.normalize schema [ cc "a"; cc "b" ]))

let test_optimize_equivalent_keeps_first () =
  (* S(x,y) and S(x,y) ∧ S(x,y') are equivalent: whichever comes first
     in the list survives *)
  let plain = Cq.make ~head:[ v "x" ] [ Atom.make "S" [ v "x"; v "y" ] ] in
  let padded =
    Cq.make ~head:[ v "x" ] [ Atom.make "S" [ v "x"; v "y" ]; Atom.make "S" [ v "x"; v "y'" ] ]
  in
  let cc name q = Containment.make ~name (Lang.Q_cq q) (Projection.proj "M" [ 0 ]) in
  let names ccs = List.map (fun c -> c.Containment.cc_name) (Optimize.normalize schema ccs) in
  Alcotest.(check (list string)) "plain first" [ "plain" ]
    (names [ cc "plain" plain; cc "padded" padded ]);
  Alcotest.(check (list string)) "padded first" [ "padded" ]
    (names [ cc "padded" padded; cc "plain" plain ])

let test_optimize_containment_rejected () =
  (* the unsafe query's head variable z occurs in no atom, so
     [Cq.contained_in] raises Invalid_argument on the pair: neither
     constraint counts as subsumed and both are kept *)
  let safe = Cq.make ~head:[ v "x" ] [ Atom.make "S" [ v "x"; v "y" ] ] in
  let unsafe = Cq.make ~head:[ v "z" ] [ Atom.make "S" [ v "x"; v "y" ] ] in
  Alcotest.(check bool) "the pair is rejected" true
    (try
       ignore (Cq.contained_in schema safe unsafe);
       false
     with Invalid_argument _ -> true);
  let ccs =
    [
      Containment.make ~name:"safe" (Lang.Q_cq safe) (Projection.proj "M" [ 0 ]);
      Containment.make ~name:"unsafe" (Lang.Q_cq unsafe) (Projection.proj "M" [ 0 ]);
    ]
  in
  Alcotest.(check (list string)) "both kept" [ "safe"; "unsafe" ]
    (List.map (fun c -> c.Containment.cc_name) (Optimize.normalize schema ccs))

let prop_optimize_sound =
  QCheck2.Test.make ~name:"normalisation preserves satisfaction" ~count:100
    QCheck2.Gen.(list_size (int_bound 6) (pair (int_bound 2) (int_bound 2)))
    (fun rows ->
      let d = db [] (List.map (fun (a, b) -> [ a; b ]) rows) in
      let ccs =
        [
          Containment.make ~name:"all"
            (Lang.Q_cq (Cq.make ~head:[ v "x" ] [ Atom.make "S" [ v "x"; v "y" ] ]))
            (Projection.proj "M" [ 0 ]);
          Containment.make ~name:"loop"
            (Lang.Q_cq (Cq.make ~head:[ v "x" ] [ Atom.make "S" [ v "x"; v "x" ] ]))
            (Projection.proj "M" [ 0 ]);
          Containment.make ~name:"pair"
            (Lang.Q_cq
               (Cq.make ~head:[ v "x" ]
                  [ Atom.make "S" [ v "x"; v "y" ]; Atom.make "S" [ v "y"; v "z" ] ]))
            (Projection.proj "M" [ 0 ]);
          (* equivalent to "all": the earlier one stands for both *)
          Containment.make ~name:"padded"
            (Lang.Q_cq
               (Cq.make ~head:[ v "x" ]
                  [ Atom.make "S" [ v "x"; v "y" ]; Atom.make "S" [ v "x"; v "y'" ] ]))
            (Projection.proj "M" [ 0 ]);
          (* the miner's denial shape: inequalities, so never analysed *)
          Containment.make ~name:"fd"
            (Lang.Q_cq
               (Cq.make ~neqs:[ (v "y", v "y'") ] ~head:[ v "x" ]
                  [ Atom.make "S" [ v "x"; v "y" ]; Atom.make "S" [ v "x"; v "y'" ] ]))
            Projection.Empty;
        ]
      in
      Containment.holds_all ~db:d ~master ccs
      = Containment.holds_all ~db:d ~master (Optimize.normalize schema ccs))

(* ------------------------------------------------------------------ *)
(* Properties: the same equivalences on generated databases *)

let db_gen =
  QCheck2.Gen.(
    map2
      (fun r s ->
        db
          (List.map (fun (a, b, c) -> [ a; b; c ]) r)
          (List.map (fun (a, b) -> [ a; b ]) s))
      (list_size (int_bound 6) (triple (int_bound 2) (int_bound 2) (int_bound 2)))
      (list_size (int_bound 6) (pair (int_bound 2) (int_bound 2))))

let prop_fd_translation =
  QCheck2.Test.make ~name:"Prop 2.1: FD ⟺ its CC translation" ~count:150 db_gen (fun d ->
      Fd.holds d fd_ab
      = Containment.holds_all ~db:d ~master:empty_master (Translate.of_fd schema fd_ab))

let prop_cfd_translation =
  QCheck2.Test.make ~name:"Prop 2.1: CFD ⟺ its CC translation" ~count:150 db_gen (fun d ->
      Cfd.holds d cfd
      = Containment.holds_all ~db:d ~master:empty_master (Translate.of_cfd schema cfd))

let prop_cind_translation =
  QCheck2.Test.make ~name:"Prop 2.1: CIND ⟺ its FO CC translation" ~count:150 db_gen
    (fun d ->
      Cind.holds d cind
      = Containment.holds_all ~db:d ~master:empty_master [ Translate.of_cind schema cind ])

let prop_denial_translation =
  QCheck2.Test.make ~name:"Prop 2.1: denial ⟺ its CC translation" ~count:150 db_gen
    (fun d ->
      Denial.holds d denial_no_loop
      = Containment.holds_all ~db:d ~master:empty_master
          [ Translate.of_denial denial_no_loop ])

let properties =
  List.map QCheck_alcotest.to_alcotest
    [ prop_fd_translation; prop_cfd_translation; prop_cind_translation;
      prop_denial_translation; prop_optimize_sound ]

let () =
  Alcotest.run "constraints"
    [
      ( "containment",
        [
          Alcotest.test_case "holds / violation" `Quick test_cc_holds;
          Alcotest.test_case "empty rhs" `Quick test_cc_empty_rhs;
          Alcotest.test_case "arity mismatch" `Quick test_cc_arity_mismatch;
          Alcotest.test_case "FO lhs" `Quick test_cc_fo_lhs;
        ] );
      ( "ind",
        [
          Alcotest.test_case "holds / covers" `Quick test_ind;
          Alcotest.test_case "to_cc agrees" `Quick test_ind_to_cc_agrees;
        ] );
      ( "integrity",
        [
          Alcotest.test_case "fd" `Quick test_fd;
          Alcotest.test_case "cfd" `Quick test_cfd;
          Alcotest.test_case "cfd pairwise" `Quick test_cfd_pairwise;
          Alcotest.test_case "denial" `Quick test_denial;
          Alcotest.test_case "cind" `Quick test_cind;
        ] );
      ( "prop-2.1",
        [
          Alcotest.test_case "fd translation" `Quick test_translate_fd;
          Alcotest.test_case "cfd translation" `Quick test_translate_cfd;
          Alcotest.test_case "cfd multi-lhs" `Quick test_translate_cfd_multi_rhs;
          Alcotest.test_case "denial translation" `Quick test_translate_denial;
          Alcotest.test_case "denial with neq" `Quick test_translate_denial_with_neq;
          Alcotest.test_case "cind translation" `Quick test_translate_cind;
          Alcotest.test_case "cind as plain ind" `Quick test_translate_cind_plain_ind;
          Alcotest.test_case "paper BU example" `Quick test_paper_cfd_example;
        ] );
      ( "optimize",
        [
          Alcotest.test_case "unsatisfiable dropped" `Quick test_optimize_unsat_dropped;
          Alcotest.test_case "subsumption" `Quick test_optimize_subsumption;
          Alcotest.test_case "different targets kept" `Quick test_optimize_different_targets_kept;
          Alcotest.test_case "duplicates" `Quick test_optimize_duplicates;
          Alcotest.test_case "equivalent pair keeps the first" `Quick
            test_optimize_equivalent_keeps_first;
          Alcotest.test_case "rejected containment keeps both" `Quick
            test_optimize_containment_rejected;
        ] );
      ("properties", properties);
    ]

(* Tests for the RCDP decider (Section 3): the paper's worked
   examples, the C1–C4 characterisations, the Corollary 3.4 IND fast
   path, agreement with the bounded brute-force extension search, and
   the Theorem 3.1 undecidability guards. *)

open Ric_relational
open Ric_query
open Ric_constraints
open Ric_complete

let v = Term.var
let s = Term.str

let schema =
  Schema.make
    [
      Schema.relation "Supt"
        [ Schema.attribute "eid"; Schema.attribute "dept"; Schema.attribute "cid" ];
      Schema.relation "Flag"
        [ Schema.attribute "node"; Schema.attribute ~dom:Domain.boolean "bit" ];
    ]

let master_schema =
  Schema.make [ Schema.relation "MCust" [ Schema.attribute "cid" ] ]

let master ids =
  Database.of_list master_schema
    [ ("MCust", Relation.of_tuples (List.map (fun c -> Tuple.of_strs [ c ]) ids)) ]

let supt rows = Database.of_list schema [ ("Supt", Relation.of_str_rows rows) ]

(* φ1 of Example 2.1: an employee supports at most k customers. *)
let support_load k =
  let atoms =
    List.init (k + 1) (fun i ->
        Atom.make "Supt" [ v "e"; v (Printf.sprintf "d%d" i); v (Printf.sprintf "c%d" i) ])
  in
  let neqs =
    List.concat
      (List.init (k + 1) (fun i ->
           List.filter_map
             (fun j ->
               if j > i then Some (v (Printf.sprintf "c%d" i), v (Printf.sprintf "c%d" j))
               else None)
             (List.init (k + 1) (fun j -> j))))
  in
  Containment.make ~name:"phi1"
    (Lang.Q_cq (Cq.make ~neqs ~head:(v "e" :: List.init (k + 1) (fun i -> v (Printf.sprintf "c%d" i))) atoms))
    Projection.Empty

(* Q2 of Example 1.1: customers supported by e0. *)
let q2 = Cq.make ~head:[ v "c" ] [ Atom.make "Supt" [ s "e0"; v "d"; v "c" ] ]

let decide ?(ccs = []) db q =
  Rcdp.decide ~schema ~master:(master []) ~ccs ~db (Lang.Q_cq q)

let check_complete name expected verdict =
  let got =
    match verdict with
    | Rcdp.Complete -> true
    | Rcdp.Incomplete _ -> false
  in
  Alcotest.(check bool) name expected got

(* ------------------------------------------------------------------ *)
(* Example 2.2: the k-customers cap *)

let test_example_2_2_full () =
  let db = supt (List.init 3 (fun i -> [ "e0"; "d0"; Printf.sprintf "c%d" i ])) in
  check_complete "k answers ⇒ complete" true (decide ~ccs:[ support_load 3 ] db q2)

let test_example_2_2_partial () =
  let db = supt (List.init 2 (fun i -> [ "e0"; "d0"; Printf.sprintf "c%d" i ])) in
  match decide ~ccs:[ support_load 3 ] db q2 with
  | Rcdp.Complete -> Alcotest.fail "k−1 answers must be incomplete"
  | Rcdp.Incomplete cex ->
    (* the counterexample adds a fresh customer for e0 *)
    Alcotest.(check bool) "extension touches Supt" true
      (not (Relation.is_empty (Database.relation cex.Rcdp.cex_extension "Supt")))

let test_example_2_2_other_employee () =
  (* tuples of other employees do not count against e0's cap *)
  let db =
    supt
      ([ [ "e1"; "d1"; "x0" ]; [ "e1"; "d1"; "x1" ]; [ "e1"; "d1"; "x2" ] ]
      @ List.init 3 (fun i -> [ "e0"; "d0"; Printf.sprintf "c%d" i ]))
  in
  check_complete "cap is per employee" true (decide ~ccs:[ support_load 3 ] db q2)

(* FD eid → dept, cid (Example 1.1): nonempty answer ⇒ complete. *)
let fd_full = Fd.make ~name:"fd_full" ~rel:"Supt" ~lhs:[ 0 ] ~rhs:[ 1; 2 ] ()
let ccs_fd_full = Translate.of_fd schema fd_full

let test_fd_nonempty_complete () =
  let db = supt [ [ "e0"; "d0"; "c0" ] ] in
  check_complete "FD pins the only possible tuple" true (decide ~ccs:ccs_fd_full db q2)

let test_fd_empty_incomplete () =
  let db = supt [ [ "e1"; "d1"; "c1" ] ] in
  check_complete "no e0 tuple yet" false (decide ~ccs:ccs_fd_full db q2)

(* ------------------------------------------------------------------ *)
(* Master-data-bounded completeness (condition C2 through a real
   projection) *)

let supported =
  (* supported customers are bounded by master customers *)
  Containment.make ~name:"bound"
    (Lang.Q_cq (Cq.make ~head:[ v "c" ] [ Atom.make "Supt" [ v "e"; v "d"; v "c" ] ]))
    (Projection.proj "MCust" [ 0 ])

let test_master_bound_complete () =
  let m = master [ "c0"; "c1" ] in
  let db = supt [ [ "e0"; "d0"; "c0" ]; [ "e0"; "d0"; "c1" ] ] in
  check_complete "all master customers present" true
    (Rcdp.decide ~schema ~master:m ~ccs:[ supported ] ~db (Lang.Q_cq q2))

let test_master_bound_incomplete () =
  let m = master [ "c0"; "c1" ] in
  let db = supt [ [ "e0"; "d0"; "c0" ] ] in
  match Rcdp.decide ~schema ~master:m ~ccs:[ supported ] ~db (Lang.Q_cq q2) with
  | Rcdp.Complete -> Alcotest.fail "c1 is still missing"
  | Rcdp.Incomplete cex ->
    Alcotest.(check bool) "the missing answer is c1" true
      (Tuple.equal cex.Rcdp.cex_answer (Tuple.of_strs [ "c1" ]))

let test_not_partially_closed_rejected () =
  let m = master [ "c0" ] in
  let db = supt [ [ "e0"; "d0"; "c9" ] ] in
  Alcotest.(check bool) "precondition enforced" true
    (try
       ignore (Rcdp.decide ~schema ~master:m ~ccs:[ supported ] ~db (Lang.Q_cq q2));
       false
     with Rcdp.Not_partially_closed _ -> true)

(* The entry check runs on the decide's checker: it must reject
   exactly the databases [Containment.holds_all] rejects, whatever the
   constraints and their order. *)
let prop_entry_check_is_holds_all =
  let open QCheck2.Gen in
  let row =
    map3
      (fun e d c -> [ e; d; c ])
      (oneofl [ "e0"; "e1" ]) (oneofl [ "d0"; "d1" ]) (oneofl [ "c0"; "c1"; "c9" ])
  in
  QCheck2.Test.make ~name:"entry check rejects exactly what holds_all rejects" ~count:200
    ~print:(fun (rows, picks) ->
      Printf.sprintf "%s; ccs %s"
        (String.concat " " (List.map (String.concat ",") rows))
        (String.concat "," (List.map string_of_int picks)))
    (pair (list_size (int_bound 4) row) (list_size (int_bound 3) (int_bound 2)))
    (fun (rows, picks) ->
      let m = master [ "c0"; "c1" ] in
      let ccs = List.map (List.nth [ supported; support_load 1; support_load 2 ]) picks in
      let db = supt rows in
      let closed = Containment.holds_all ~db ~master:m ccs in
      let rejected =
        match Rcdp.decide ~schema ~master:m ~ccs ~db (Lang.Q_cq q2) with
        | _ -> false
        | exception Rcdp.Not_partially_closed _ -> true
      in
      rejected = not closed)

(* A database that breaks V is no witness, even where it would be
   complete: Q3 is Boolean and [w] already answers it, so no extension
   can change the answer — only the closure check rejects [w]. *)
let test_violating_witness_rejected () =
  let m = master [ "c0" ] in
  let q3 = Lang.Q_cq (Cq.make ~head:[] [ Atom.make "Supt" [ s "e0"; v "d"; v "c" ] ]) in
  let verify rows = Rcqp.verify_witness ~schema ~master:m ~ccs:[ supported ] q3 (supt rows) in
  Alcotest.(check bool) "closed and complete" true (verify [ [ "e0"; "d0"; "c0" ] ]);
  Alcotest.(check bool) "complete but not closed" false (verify [ [ "e0"; "d0"; "c9" ] ])

(* ------------------------------------------------------------------ *)
(* No constraints: only finite-domain outputs can be complete *)

let test_no_ccs_infinite_output () =
  let db = supt [ [ "e0"; "d0"; "c0" ] ] in
  check_complete "open world, infinite output" false (decide db q2)

let test_no_ccs_finite_output () =
  (* all bits are present: the Boolean column cannot grow *)
  let db =
    Database.of_list schema
      [ ("Flag", Relation.of_int_rows [ [ 0; 0 ]; [ 0; 1 ] ]) ]
  in
  let q = Cq.make ~head:[ v "b" ] [ Atom.make "Flag" [ v "n"; v "b" ] ] in
  check_complete "finite output saturated" true (decide db q)

let test_no_ccs_finite_output_missing () =
  let db = Database.of_list schema [ ("Flag", Relation.of_int_rows [ [ 0; 0 ] ]) ] in
  let q = Cq.make ~head:[ v "b" ] [ Atom.make "Flag" [ v "n"; v "b" ] ] in
  check_complete "bit 1 still missing" false (decide db q)

let test_unsatisfiable_query_complete () =
  let q =
    Cq.make
      ~eqs:[ (v "d", s "a"); (v "d", s "b") ]
      ~head:[ v "c" ]
      [ Atom.make "Supt" [ v "e"; v "d"; v "c" ] ]
  in
  check_complete "unsatisfiable query" true (decide (supt []) q)

(* ------------------------------------------------------------------ *)
(* UCQ and ∃FO⁺ *)

let test_ucq_one_disjunct_unbounded () =
  let qa = Cq.make ~head:[ v "c" ] [ Atom.make "Supt" [ s "e0"; v "d"; v "c" ] ] in
  let qb = Cq.make ~head:[ v "c" ] [ Atom.make "Supt" [ s "e1"; v "d"; v "c" ] ] in
  let db = supt [ [ "e0"; "d0"; "c0" ] ] in
  (* e0 is capped at 1 and saturated, but e1 is open *)
  let verdict =
    Rcdp.decide ~schema ~master:(master []) ~ccs:[ support_load 1 ] ~db
      (Lang.Q_ucq (Ucq.make [ qa; qb ]))
  in
  (match verdict with
   | Rcdp.Complete -> Alcotest.fail "the e1 disjunct is open"
   | Rcdp.Incomplete cex ->
     Alcotest.(check int) "blame the second disjunct" 1 cex.Rcdp.cex_disjunct)

let test_efo_routes_through_ucq () =
  let f =
    Efo.Or
      ( Efo.Atom (Atom.make "Supt" [ s "e0"; v "d"; v "c" ]),
        Efo.Atom (Atom.make "Supt" [ s "e1"; v "d"; v "c" ]) )
  in
  let q = Efo.make ~head:[ v "c" ] f in
  let db = supt [ [ "e0"; "d0"; "c0" ]; [ "e1"; "d0"; "c0" ] ] in
  let verdict =
    Rcdp.decide ~schema ~master:(master []) ~ccs:[ support_load 1 ] ~db (Lang.Q_efo q)
  in
  check_complete "both employees saturated at k=1" true verdict

(* ------------------------------------------------------------------ *)
(* Corollary 3.4: the IND fast path agrees with the generic decider *)

let ind_supported = Ind.make ~name:"i" ~rel:"Supt" ~cols:[ 2 ] (Projection.proj "MCust" [ 0 ])

let test_ind_fast_path_agrees () =
  let m = master [ "c0"; "c1"; "c2" ] in
  List.iter
    (fun rows ->
      let db = supt rows in
      let generic =
        Rcdp.decide ~schema ~master:m ~ccs:[ Ind.to_cc schema ind_supported ] ~db
          (Lang.Q_cq q2)
      in
      let fast =
        Rcdp.decide_ind ~schema ~master:m ~inds:[ ind_supported ] ~db (Lang.Q_cq q2)
      in
      Alcotest.(check bool)
        (Printf.sprintf "C2 = C3 on %d rows" (List.length rows))
        (generic = Rcdp.Complete) (fast = Rcdp.Complete))
    [
      [];
      [ [ "e0"; "d0"; "c0" ] ];
      [ [ "e0"; "d0"; "c0" ]; [ "e0"; "d1"; "c1" ]; [ "e0"; "d0"; "c2" ] ];
      [ [ "e1"; "d0"; "c0" ] ];
    ]

(* ------------------------------------------------------------------ *)
(* Agreement with the bounded brute-force search *)

let test_agrees_with_semi_decide () =
  let m = master [ "c0"; "c1" ] in
  List.iter
    (fun rows ->
      let db = supt rows in
      let exact = Rcdp.decide ~schema ~master:m ~ccs:[ supported ] ~db (Lang.Q_cq q2) in
      let semi =
        Rcdp.semi_decide ~max_tuples:1 ~schema ~master:m ~ccs:[ supported ] ~db
          (Lang.Q_cq q2)
      in
      match exact, semi with
      | Rcdp.Complete, Rcdp.Refuted _ ->
        Alcotest.fail "semi refuted a database the exact decider accepted"
      | Rcdp.Incomplete _, Rcdp.No_counterexample _ ->
        Alcotest.fail "semi missed a single-tuple counterexample"
      | _ -> ())
    [ []; [ [ "e0"; "d0"; "c0" ] ]; [ [ "e0"; "d0"; "c0" ]; [ "e0"; "d0"; "c1" ] ] ]

(* ------------------------------------------------------------------ *)
(* Theorem 3.1 guards *)

let test_fo_query_unsupported () =
  let q = Fo.boolean (Fo.Exists ([ "x" ], Fo.Atom (Atom.make "MCust" [ v "x" ]))) in
  Alcotest.(check bool) "FO raises" true
    (try
       ignore (decide (supt []) q2 |> ignore;
               Rcdp.decide ~schema ~master:(master []) ~ccs:[] ~db:(supt []) (Lang.Q_fo q));
       false
     with Rcdp.Unsupported _ -> true)

let test_fo_cc_unsupported () =
  let fo_cc =
    Containment.make
      (Lang.Q_fo (Fo.make ~head:[ v "x" ] (Fo.Exists ([ "d"; "c" ], Fo.Atom (Atom.make "Supt" [ v "x"; v "d"; v "c" ])))))
      Projection.Empty
  in
  Alcotest.(check bool) "FO CC raises" true
    (try
       ignore (Rcdp.decide ~schema ~master:(master []) ~ccs:[ fo_cc ] ~db:(supt []) (Lang.Q_cq q2));
       false
     with Rcdp.Unsupported _ -> true)

(* ------------------------------------------------------------------ *)
(* Properties *)

let rows_gen =
  QCheck2.Gen.(
    list_size (int_bound 4)
      (map
         (fun (e, d, c) ->
           [ Printf.sprintf "e%d" e; Printf.sprintf "d%d" d; Printf.sprintf "c%d" c ])
         (triple (int_bound 1) (int_bound 1) (int_bound 2))))

let prop_complete_stable_under_cap_growth =
  (* a larger cap admits every extension the smaller cap admits, so
     completeness under the larger cap implies completeness under the
     smaller one (when the database satisfies both) *)
  QCheck2.Test.make ~name:"smaller caps only shrink the extension space" ~count:30 rows_gen
    (fun rows ->
      let db = supt rows in
      let closed k =
        Containment.holds_all ~db ~master:(master []) [ support_load k ]
      in
      if not (closed 2 && closed 3) then true
      else
        let verdict k = decide ~ccs:[ support_load k ] db q2 = Rcdp.Complete in
        (not (verdict 3)) || verdict 2)

let prop_counterexample_is_real =
  (* every counterexample really is a partially closed extension with a
     new answer *)
  QCheck2.Test.make ~name:"counterexamples verify" ~count:40 rows_gen (fun rows ->
      let db = supt rows in
      let m = master [ "c0"; "c1" ] in
      if not (Containment.holds_all ~db ~master:m [ supported ]) then true
      else
        match Rcdp.decide ~schema ~master:m ~ccs:[ supported ] ~db (Lang.Q_cq q2) with
        | Rcdp.Complete -> true
        | Rcdp.Incomplete cex ->
          let extended = Database.union db cex.Rcdp.cex_extension in
          Containment.holds_all ~db:extended ~master:m [ supported ]
          && Relation.mem cex.Rcdp.cex_answer (Cq.eval extended q2)
          && not (Relation.mem cex.Rcdp.cex_answer (Cq.eval db q2)))

let prop_ind_fast_path =
  QCheck2.Test.make ~name:"Corollary 3.4: C3 ≡ C2 for INDs" ~count:40 rows_gen (fun rows ->
      let db = supt rows in
      let m = master [ "c0"; "c1"; "c2" ] in
      let cc = Ind.to_cc schema ind_supported in
      if not (Containment.holds_all ~db ~master:m [ cc ]) then true
      else
        let generic = Rcdp.decide ~schema ~master:m ~ccs:[ cc ] ~db (Lang.Q_cq q2) in
        let fast = Rcdp.decide_ind ~schema ~master:m ~inds:[ ind_supported ] ~db (Lang.Q_cq q2) in
        (generic = Rcdp.Complete) = (fast = Rcdp.Complete))

let properties =
  List.map QCheck_alcotest.to_alcotest
    [ prop_complete_stable_under_cap_growth; prop_counterexample_is_real; prop_ind_fast_path ]

let () =
  Alcotest.run "rcdp"
    [
      ( "example-2.2",
        [
          Alcotest.test_case "k answers complete" `Quick test_example_2_2_full;
          Alcotest.test_case "k−1 answers incomplete" `Quick test_example_2_2_partial;
          Alcotest.test_case "cap is per employee" `Quick test_example_2_2_other_employee;
        ] );
      ( "functional dependencies",
        [
          Alcotest.test_case "nonempty ⇒ complete" `Quick test_fd_nonempty_complete;
          Alcotest.test_case "empty ⇒ incomplete" `Quick test_fd_empty_incomplete;
        ] );
      ( "master bound",
        [
          Alcotest.test_case "saturated" `Quick test_master_bound_complete;
          Alcotest.test_case "missing customer" `Quick test_master_bound_incomplete;
          Alcotest.test_case "partially closed precondition" `Quick
            test_not_partially_closed_rejected;
          QCheck_alcotest.to_alcotest prop_entry_check_is_holds_all;
          Alcotest.test_case "violating witness rejected" `Quick
            test_violating_witness_rejected;
        ] );
      ( "open world",
        [
          Alcotest.test_case "infinite output" `Quick test_no_ccs_infinite_output;
          Alcotest.test_case "finite output saturated" `Quick test_no_ccs_finite_output;
          Alcotest.test_case "finite output missing" `Quick test_no_ccs_finite_output_missing;
          Alcotest.test_case "unsatisfiable query" `Quick test_unsatisfiable_query_complete;
        ] );
      ( "ucq / efo",
        [
          Alcotest.test_case "disjunct blame" `Quick test_ucq_one_disjunct_unbounded;
          Alcotest.test_case "efo expansion" `Quick test_efo_routes_through_ucq;
        ] );
      ( "ind fast path",
        [ Alcotest.test_case "Corollary 3.4" `Quick test_ind_fast_path_agrees ] );
      ( "semi decide",
        [ Alcotest.test_case "agreement" `Quick test_agrees_with_semi_decide ] );
      ( "undecidable guards",
        [
          Alcotest.test_case "FO query" `Quick test_fo_query_unsupported;
          Alcotest.test_case "FO constraint" `Quick test_fo_cc_unsupported;
        ] );
      ("properties", properties);
    ]

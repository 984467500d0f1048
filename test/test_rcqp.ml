(* Tests for the RCQP decider (Section 4): Example 4.1, conditions
   E1–E6, the IND case of Proposition 4.3, witness verification, and
   the Theorem 4.1 undecidability guards. *)

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

let master_schema = Schema.make [ Schema.relation "MCust" [ Schema.attribute "cid" ] ]

let master ids =
  Database.of_list master_schema
    [ ("MCust", Relation.of_tuples (List.map (fun c -> Tuple.of_strs [ c ]) ids)) ]

let fd_dept = Translate.of_fd schema (Fd.make ~rel:"Supt" ~lhs:[ 0 ] ~rhs:[ 1 ] ())
let fd_full = Translate.of_fd schema (Fd.make ~rel:"Supt" ~lhs:[ 0 ] ~rhs:[ 1; 2 ] ())

let q2_customers = Cq.make ~head:[ v "c" ] [ Atom.make "Supt" [ s "e0"; v "d"; v "c" ] ]
let q2_tuples = Cq.make ~head:[ s "e0"; v "d"; v "c" ] [ Atom.make "Supt" [ s "e0"; v "d"; v "c" ] ]
let q4 = Cq.make ~head:[ s "e0"; s "d0"; v "c" ] [ Atom.make "Supt" [ s "e0"; s "d0"; v "c" ] ]

let decide ?master:(m = master []) ccs q =
  Rcqp.decide ~schema ~master:m ~ccs (Lang.Q_cq q)

let name v = Rcqp.verdict_name v

(* ------------------------------------------------------------------ *)
(* Example 4.1 *)

let test_q4_fd_dept_nonempty () =
  (* D− = {(e0, d', c)} with d' ≠ d0 blocks every Q4 extension *)
  match decide fd_dept q4 with
  | Rcqp.Nonempty { witness = Some w; _ } ->
    Alcotest.(check bool) "witness verified complete" true
      (Rcdp.decide ~schema ~master:(master []) ~ccs:fd_dept ~db:w (Lang.Q_cq q4)
       = Rcdp.Complete)
  | verdict -> Alcotest.fail ("expected nonempty with witness, got " ^ name verdict)

let test_q2_fd_dept_empty () =
  (* cid is invisible to eid → dept: a fresh customer always slips in *)
  match decide fd_dept q2_tuples with
  | Rcqp.Empty _ -> ()
  | verdict -> Alcotest.fail ("expected empty, got " ^ name verdict)

let test_q2_fd_full_nonempty () =
  (* eid → dept, cid pins the single tuple D+ = {(e0, d0, c0)} *)
  match decide fd_full q2_tuples with
  | Rcqp.Nonempty _ -> ()
  | verdict -> Alcotest.fail ("expected nonempty, got " ^ name verdict)

let test_q2_head_c_fd_full_nonempty () =
  match decide fd_full q2_customers with
  | Rcqp.Nonempty _ -> ()
  | verdict -> Alcotest.fail ("expected nonempty, got " ^ name verdict)

(* ------------------------------------------------------------------ *)
(* E1/E5: finite-domain outputs *)

let test_finite_output_nonempty () =
  let q = Cq.make ~head:[ v "b" ] [ Atom.make "Flag" [ v "n"; v "b" ] ] in
  match decide [] q with
  | Rcqp.Nonempty { witness = Some w; _ } ->
    Alcotest.(check bool) "witness complete" true
      (Rcdp.decide ~schema ~master:(master []) ~ccs:[] ~db:w (Lang.Q_cq q) = Rcdp.Complete)
  | verdict -> Alcotest.fail ("expected nonempty via E1, got " ^ name verdict)

let test_no_ccs_infinite_output_empty () =
  (* Proposition 4.2 case V = ∅: an infinite output variable kills it *)
  match decide [] q2_customers with
  | Rcqp.Empty _ -> ()
  | verdict -> Alcotest.fail ("expected empty, got " ^ name verdict)

let test_unsatisfiable_query_nonempty () =
  let q =
    Cq.make
      ~eqs:[ (v "d", s "a"); (v "d", s "b") ]
      ~head:[ v "c" ]
      [ Atom.make "Supt" [ v "e"; v "d"; v "c" ] ]
  in
  match decide [] q with
  | Rcqp.Nonempty { witness = Some w; _ } ->
    Alcotest.(check bool) "empty witness" true (Database.is_empty w)
  | verdict -> Alcotest.fail ("expected nonempty, got " ^ name verdict)

(* ------------------------------------------------------------------ *)
(* The support-load cap: blockers via counting constraints *)

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
    (Lang.Q_cq
       (Cq.make ~neqs
          ~head:(v "e" :: List.init (k + 1) (fun i -> v (Printf.sprintf "c%d" i)))
          atoms))
    Projection.Empty

let test_support_cap_nonempty () =
  (* with a cap of 1 a single-tuple database is complete for Q2 *)
  match decide [ support_load 1 ] q2_customers with
  | Rcqp.Nonempty _ -> ()
  | verdict -> Alcotest.fail ("expected nonempty, got " ^ name verdict)

(* ------------------------------------------------------------------ *)
(* Proposition 4.3: the IND case *)

let ind_supported = Ind.make ~rel:"Supt" ~cols:[ 2 ] (Projection.proj "MCust" [ 0 ])
let decide_ind ?master:(m = master [ "c0"; "c1" ]) inds q =
  Rcqp.decide_ind ~schema ~master:m ~inds (Lang.Q_cq q)

let test_ind_bounded () =
  (* cid is covered by the IND: E4 holds, and dept is... dept is
     unbounded!  Q2 on full tuples must be empty, Q2 on customers
     nonempty. *)
  (match decide_ind [ ind_supported ] q2_customers with
   | Rcqp.Nonempty { witness = Some w; _ } ->
     Alcotest.(check bool) "witness complete" true
       (Rcdp.decide_ind ~schema ~master:(master [ "c0"; "c1" ]) ~inds:[ ind_supported ]
          ~db:w (Lang.Q_cq q2_customers)
        = Rcdp.Complete)
   | verdict -> Alcotest.fail ("expected nonempty, got " ^ name verdict));
  match decide_ind [ ind_supported ] q2_tuples with
  | Rcqp.Empty _ -> ()
  | verdict -> Alcotest.fail ("expected empty (dept uncovered), got " ^ name verdict)

let test_ind_no_valid_valuation () =
  (* empty master: no Supt tuple can exist at all, so the empty
     database is complete (the escape clause) *)
  match decide_ind ~master:(master []) [ ind_supported ] q2_customers with
  | Rcqp.Nonempty { witness = Some w; _ } ->
    Alcotest.(check bool) "empty witness" true (Database.is_empty w)
  | verdict -> Alcotest.fail ("expected nonempty via escape clause, got " ^ name verdict)

let test_ind_matches_generic () =
  (* the IND decider and the generic decider agree when both conclude *)
  List.iter
    (fun (inds, q) ->
      let ind_verdict = decide_ind inds q in
      let ccs = List.map (Ind.to_cc schema) inds in
      let generic = Rcqp.decide ~schema ~master:(master [ "c0"; "c1" ]) ~ccs (Lang.Q_cq q) in
      match ind_verdict, generic with
      | Rcqp.Nonempty _, Rcqp.Empty _ | Rcqp.Empty _, Rcqp.Nonempty _ ->
        Alcotest.fail "IND and generic deciders disagree"
      | _ -> ())
    [
      ([ ind_supported ], q2_customers);
      ([ ind_supported ], q2_tuples);
      ([], q2_customers);
    ]

(* ------------------------------------------------------------------ *)
(* Theorem 4.1 guards *)

let test_fp_query_unsupported () =
  let p = Datalog.transitive_closure ~edge:"Supt" ~out:"tc" in
  Alcotest.(check bool) "FP raises" true
    (try
       ignore (Rcqp.decide ~schema ~master:(master []) ~ccs:[] (Lang.Q_fp p));
       false
     with Rcqp.Unsupported _ -> true)

let test_fo_cc_unsupported () =
  let fo_cc =
    Containment.make
      (Lang.Q_fo
         (Fo.make ~head:[ v "x" ]
            (Fo.Exists ([ "d"; "c" ], Fo.Atom (Atom.make "Supt" [ v "x"; v "d"; v "c" ])))))
      Projection.Empty
  in
  Alcotest.(check bool) "FO CC raises" true
    (try
       ignore (Rcqp.decide ~schema ~master:(master []) ~ccs:[ fo_cc ] (Lang.Q_cq q2_customers));
       false
     with Rcqp.Unsupported _ -> true)

(* ------------------------------------------------------------------ *)
(* Semi-decision for the undecidable rows *)

let test_semi_decide_finds_witness () =
  let fo_cc =
    (* FO constraint: there is at most one Supt tuple (a denial
       expressed with negation, just to exercise the FO path) *)
    Containment.make
      (Lang.Q_fo
         (Fo.make
            ~head:[ v "e"; v "d"; v "c"; v "e'"; v "d'"; v "c'" ]
            (Fo.And
               ( Fo.Atom (Atom.make "Supt" [ v "e"; v "d"; v "c" ]),
                 Fo.And
                   ( Fo.Atom (Atom.make "Supt" [ v "e'"; v "d'"; v "c'" ]),
                     Fo.neq (v "c") (v "c'") ) ))))
      Projection.Empty
  in
  match
    Rcqp.semi_decide ~max_tuples:1 ~schema ~master:(master []) ~ccs:[ fo_cc ]
      (Lang.Q_cq q2_customers)
  with
  | Rcqp.Plausibly_nonempty _ -> ()
  | Rcqp.No_witness_found _ -> Alcotest.fail "a single-tuple witness exists"

(* ------------------------------------------------------------------ *)
(* Brute-force cross-check: Nonempty must have a small witness when
   the universe is small; Empty must have none. *)

let brute_force_has_witness ?master:(m = master []) ~values ~max_tuples ccs q =
  let tuples =
    List.concat_map
      (fun e -> List.concat_map (fun d -> List.map (fun c -> [ e; d; c ]) values) values)
      values
  in
  let candidates = List.map (fun r -> Tuple.of_strs r) tuples in
  let rec grow start db count =
    (Containment.holds_all ~db ~master:m ccs
     && Rcdp.decide ~schema ~master:m ~ccs ~db (Lang.Q_cq q) = Rcdp.Complete)
    ||
    (count < max_tuples
     && List.exists
          (fun i ->
            let t = List.nth candidates i in
            (not (Relation.mem t (Database.relation db "Supt")))
            && grow i (Database.add_tuple db "Supt" t) (count + 1))
          (List.init (List.length candidates) (fun i -> i) |> List.filter (fun i -> i >= start)))
  in
  grow 0 (Database.empty schema) 0

let test_brute_force_agreement () =
  (* Q4 with fd_dept: decider says nonempty; brute force over a tiny
     universe must find a witness too *)
  Alcotest.(check bool) "brute force finds Q4 witness" true
    (brute_force_has_witness ~values:[ "e0"; "d0"; "d1" ] ~max_tuples:1 fd_dept q4);
  (* Q2 with fd_dept: empty per the decider; no 1-tuple blocker exists
     over any universe (sanity: brute force with tiny universe fails) *)
  Alcotest.(check bool) "brute force finds no Q2 witness" false
    (brute_force_has_witness ~values:[ "e0"; "d0"; "c0" ] ~max_tuples:1 fd_dept q2_tuples)

(* ------------------------------------------------------------------ *)
(* Generator-shaped CCs, whose RHS the search and the candidate pool
   draw candidates from.  Random small instances mix some of the five
   shapes with one multi-atom CC, declared in random order over a
   random master; RCDP must agree with the bounded extension oracle,
   RCQP with the brute-force witness search. *)

let shapes_master_schema =
  Schema.make
    [
      Schema.relation "MCust" [ Schema.attribute "cid" ];
      Schema.relation "MPair" [ Schema.attribute "x"; Schema.attribute "y" ];
      Schema.relation "MTrip"
        [ Schema.attribute "x"; Schema.attribute "y"; Schema.attribute "z" ];
    ]

let supt e d c = Atom.make "Supt" [ e; d; c ]
let single name head atom rhs = Containment.make ~name (Lang.Q_cq (Cq.make ~head [ atom ])) rhs

let generator_shapes =
  [
    single "plain" [ v "e"; v "d"; v "c" ] (supt (v "e") (v "d") (v "c"))
      (Projection.proj "MTrip" [ 0; 1; 2 ]);
    single "constant" [ v "d"; v "c" ] (supt (s "e0") (v "d") (v "c"))
      (Projection.proj "MPair" [ 0; 1 ]);
    single "repeated" [ v "x" ] (supt (v "e") (v "x") (v "x")) (Projection.proj "MCust" [ 0 ]);
    single "partial" [ v "c" ] (supt (v "e") (v "d") (v "c")) (Projection.proj "MPair" [ 1 ]);
    single "empty" [ v "c" ] (supt (v "e") (s "d1") (v "c")) Projection.Empty;
  ]

let multi_atom = [ fd_dept; [ support_load 1 ] ]

let shapes_queries =
  [
    q2_customers;
    q2_tuples;
    q4;
    Cq.make ~head:[ v "e"; v "c" ] [ supt (v "e") (v "d") (v "c") ];
  ]

(* a random subset of [xs], one bit each *)
let subset bits xs = List.filteri (fun i _ -> bits land (1 lsl i) <> 0) xs

let shuffle seed xs =
  let st = Random.State.make [| seed |] in
  List.map (fun x -> (Random.State.bits st, x)) xs
  |> List.sort (fun (a, _) (b, _) -> compare a b)
  |> List.map snd

let prop_generator_shapes =
  QCheck2.Test.make ~name:"generator-shaped CCs agree with brute force" ~count:60
    QCheck2.Gen.(
      tup6 (int_bound 31) (int_bound 1) int (int_bound 511) (int_bound 3) (int_bound 7))
    (fun (shape_bits, join, order, master_bits, qi, db_bits) ->
      let ccs =
        shuffle order (subset shape_bits generator_shapes @ List.nth multi_atom join)
      in
      let rows rel tuples = (rel, Relation.of_tuples (List.map Tuple.of_strs tuples)) in
      let m =
        Database.of_list shapes_master_schema
          [
            rows "MCust" (subset master_bits [ [ "c0" ]; [ "c1" ]; [ "d0" ] ]);
            rows "MPair"
              (subset (master_bits lsr 3)
                 [ [ "d0"; "c0" ]; [ "d1"; "c1" ]; [ "e0"; "c1" ] ]);
            rows "MTrip"
              (subset (master_bits lsr 6)
                 [ [ "e0"; "d0"; "c0" ]; [ "e0"; "d1"; "c1" ]; [ "e1"; "d0"; "c0" ] ]);
          ]
      in
      let q = List.nth shapes_queries qi in
      let lq = Lang.Q_cq q in
      (* a partially closed D: candidate rows kept while they keep it so *)
      let db =
        List.fold_left
          (fun db t ->
            let db' = Database.add_tuple db "Supt" (Tuple.of_strs t) in
            if Containment.holds_all ~db:db' ~master:m ccs then db' else db)
          (Database.empty schema)
          (subset db_bits [ [ "e0"; "d0"; "c0" ]; [ "e0"; "d1"; "c1" ]; [ "e1"; "d0"; "c1" ] ])
      in
      let verdict = Rcdp.decide ~schema ~master:m ~ccs ~db lq in
      (match
         ( verdict,
           Rcdp.semi_decide ~max_tuples:1 ~fresh_values:3 ~schema ~master:m ~ccs ~db lq )
       with
       | Rcdp.Complete, Rcdp.No_counterexample _ | Rcdp.Incomplete _, Rcdp.Refuted _ -> ()
       | Rcdp.Complete, Rcdp.Refuted _ ->
         QCheck2.Test.fail_report "RCDP complete, but an extension refutes it"
       | Rcdp.Incomplete _, Rcdp.No_counterexample _ ->
         QCheck2.Test.fail_report "RCDP incomplete, but no extension refutes it");
      let brute =
        brute_force_has_witness ~master:m ~values:[ "e0"; "d0"; "d1"; "c0" ] ~max_tuples:1
          ccs q
      in
      (* a few of these instances take the E2 search minutes: those are
         capped, and a capped run decides nothing *)
      let clock = Budget.create ~max_steps:20_000 () in
      match Rcqp.decide ~clock ~schema ~master:m ~ccs lq with
      | exception Budget.Exhausted _ -> true
      | Rcqp.Empty _ ->
        (not brute) || QCheck2.Test.fail_report "RCQP empty, but brute force finds a witness"
      | Rcqp.Nonempty { witness = Some w; _ } ->
        (Containment.holds_all ~db:w ~master:m ccs
        && Rcdp.decide ~schema ~master:m ~ccs ~db:w lq = Rcdp.Complete)
        || QCheck2.Test.fail_report "RCQP witness does not verify"
      | Rcqp.Nonempty { witness = None; _ } | Rcqp.Unknown _ -> true)

(* ------------------------------------------------------------------ *)
(* Properties *)

let prop_witnesses_verify =
  (* whenever the decider returns a witness it really is complete *)
  QCheck2.Test.make ~name:"RCQP witnesses verify" ~count:8
    QCheck2.Gen.(int_bound 2)
    (fun k ->
      let q = q2_customers in
      match decide [ support_load (k + 1) ] q with
      | Rcqp.Nonempty { witness = Some w; _ } ->
        Containment.holds_all ~db:w ~master:(master []) [ support_load (k + 1) ]
        && Rcdp.decide ~schema ~master:(master []) ~ccs:[ support_load (k + 1) ] ~db:w
             (Lang.Q_cq q)
           = Rcdp.Complete
      | Rcqp.Nonempty { witness = None; _ } | Rcqp.Empty _ | Rcqp.Unknown _ -> true)

let properties =
  List.map QCheck_alcotest.to_alcotest [ prop_witnesses_verify; prop_generator_shapes ]

let () =
  Alcotest.run "rcqp"
    [
      ( "example-4.1",
        [
          Alcotest.test_case "Q4 / eid→dept nonempty" `Quick test_q4_fd_dept_nonempty;
          Alcotest.test_case "Q2 / eid→dept empty" `Quick test_q2_fd_dept_empty;
          Alcotest.test_case "Q2 / eid→dept,cid nonempty" `Quick test_q2_fd_full_nonempty;
          Alcotest.test_case "Q2 head-c variant" `Quick test_q2_head_c_fd_full_nonempty;
        ] );
      ( "e1-e5",
        [
          Alcotest.test_case "finite output" `Quick test_finite_output_nonempty;
          Alcotest.test_case "no CCs, infinite output" `Quick test_no_ccs_infinite_output_empty;
          Alcotest.test_case "unsatisfiable query" `Quick test_unsatisfiable_query_nonempty;
        ] );
      ( "counting blockers",
        [ Alcotest.test_case "support cap" `Quick test_support_cap_nonempty ] );
      ( "prop-4.3 (INDs)",
        [
          Alcotest.test_case "covered vs uncovered" `Quick test_ind_bounded;
          Alcotest.test_case "escape clause" `Quick test_ind_no_valid_valuation;
          Alcotest.test_case "matches generic decider" `Quick test_ind_matches_generic;
        ] );
      ( "undecidable guards",
        [
          Alcotest.test_case "FP query" `Quick test_fp_query_unsupported;
          Alcotest.test_case "FO constraint" `Quick test_fo_cc_unsupported;
        ] );
      ( "semi decide",
        [ Alcotest.test_case "finds FO witness" `Quick test_semi_decide_finds_witness ] );
      ( "brute force",
        [ Alcotest.test_case "agreement" `Quick test_brute_force_agreement ] );
      ("properties", properties);
    ]

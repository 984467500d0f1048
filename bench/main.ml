(* Benchmark harness: regenerates the paper's evaluation — Table I
   (complexity of RCDP) and Table II (complexity of RCQP) — as
   empirical artefacts.

   The paper proves complexity bounds; it has no measured numbers.  A
   faithful reproduction therefore demonstrates, per table row:

   (a) {e verdict agreement}: our decision procedures agree with
       brute-force ground truth on instance families derived from the
       paper's own hardness reductions, and
   (b) {e scaling shape}: measured time grows the way the bound
       predicts (exponential blow-up for the Σ₂ᵖ/NEXPTIME rows,
       polynomial behaviour of the per-candidate work, semi-decision
       behaviour for the undecidable rows).

   Sections (run `main.exe <section>` or no argument for all):
     table1   — Table I rows (RCDP)
     table2   — Table II rows (RCQP)
     prop21   — Proposition 2.1 (consistency as containment constraints)
     chars    — characterisation checks (C1–C4, E1–E6 artefacts)
     ablation — design-choice ablations from DESIGN.md
     micro    — bechamel micro-benchmarks (one group per table)
     search   — seq/par valuation-search strategies (BENCH_search.json)
     match    — compiled match kernel vs naive oracle (BENCH_match.json)
     mine     — constraint mining seq vs pool-parallel (BENCH_mine.json)
     load     — streaming columnar ingest vs slurp baseline (BENCH_load.json)
     obs      — instrumentation overhead: traced vs untraced seq decide
*)

open Ric_relational
open Ric_query
open Ric_constraints
open Ric_complete
open Ric_workloads
open Ric_reductions

let v = Term.var

let time f =
  let t0 = Unix.gettimeofday () in
  let x = f () in
  (x, Unix.gettimeofday () -. t0)

let hr title =
  Printf.printf "\n%s\n%s\n%s\n" (String.make 72 '=') title (String.make 72 '=')

let row name ~paper ~procedure =
  Printf.printf "\n-- %-22s paper: %-18s procedure: %s\n" name paper procedure

(* ================================================================== *)
(* Table I — RCDP                                                      *)
(* ================================================================== *)

let table1_undecidable_fo_cq () =
  row "(FO, CQ)" ~paper:"undecidable" ~procedure:"bounded semi-decision (Thm 3.1(1))";
  (* Theorem 3.1(1) reduces FO satisfiability to RCDP with empty D, Dm
     and V: D = ∅ is complete for a Boolean FO query iff the query is
     unsatisfiable.  We run the semi-decider on both sides. *)
  let schema = Schema.make [ Schema.relation "U" [ Schema.attribute "x" ] ] in
  let master = Database.empty (Schema.make []) in
  let db = Database.empty schema in
  let sat_q = Fo.boolean (Fo.Exists ([ "x" ], Fo.Atom (Atom.make "U" [ v "x" ]))) in
  let unsat_q =
    Fo.boolean
      (Fo.Exists
         ( [ "x" ],
           Fo.And (Fo.Atom (Atom.make "U" [ v "x" ]), Fo.Not (Fo.Atom (Atom.make "U" [ v "x" ]))) ))
  in
  let run q =
    Rcdp.semi_decide ~max_tuples:1 ~schema ~master ~ccs:[] ~db (Lang.Q_fo q)
  in
  (match run sat_q with
   | Rcdp.Refuted _ -> Printf.printf "  satisfiable FO query : refuted (D = ∅ incomplete)  [expected]\n"
   | Rcdp.No_counterexample _ -> Printf.printf "  satisfiable FO query : MISSED counterexample\n");
  (match run unsat_q with
   | Rcdp.No_counterexample { max_tuples; _ } ->
     Printf.printf
       "  unsatisfiable query  : no counterexample up to %d tuple(s)  [semi-decision only]\n"
       max_tuples
   | Rcdp.Refuted _ -> Printf.printf "  unsatisfiable query  : SPURIOUS refutation\n")

let table1_undecidable_cq_fo () =
  row "(CQ, FO)" ~paper:"undecidable" ~procedure:"bounded semi-decision (Thm 3.1(2))";
  (* An FO containment constraint gates extensions; the decider must
     refuse to decide, the semi-decider still refutes. *)
  let schema = Schema.make [ Schema.relation "U" [ Schema.attribute "x" ] ] in
  let master = Database.empty (Schema.make []) in
  let db = Database.empty schema in
  let fo_cc =
    (* at most one U tuple *)
    Containment.make ~name:"le1"
      (Lang.Q_fo
         (Fo.make ~head:[ v "x"; v "y" ]
            (Fo.And
               ( Fo.Atom (Atom.make "U" [ v "x" ]),
                 Fo.And (Fo.Atom (Atom.make "U" [ v "y" ]), Fo.neq (v "x") (v "y")) ))))
      Projection.Empty
  in
  let q = Cq.make ~head:[ v "x" ] [ Atom.make "U" [ v "x" ] ] in
  (try
     ignore (Rcdp.decide ~schema ~master ~ccs:[ fo_cc ] ~db (Lang.Q_cq q));
     Printf.printf "  exact decider        : FAILED to refuse an FO constraint\n"
   with Rcdp.Unsupported _ ->
     Printf.printf "  exact decider        : correctly refuses (undecidable combination)\n");
  (match Rcdp.semi_decide ~max_tuples:1 ~schema ~master ~ccs:[ fo_cc ] ~db (Lang.Q_cq q) with
   | Rcdp.Refuted _ -> Printf.printf "  semi-decision        : refuted (a single U tuple is admissible)\n"
   | Rcdp.No_counterexample _ -> Printf.printf "  semi-decision        : missed\n")

let table1_undecidable_fp () =
  row "(FP, CQ)" ~paper:"undecidable" ~procedure:"2-head DFA encoding + bounded search (Thm 3.1(3))";
  let cases =
    [
      ("L(A) = {\"1\"}", Two_head_dfa.accepts_one, false);
      ("L(A) = {1^n}", Two_head_dfa.equal_heads, false);
      ("L(A) = ∅", Two_head_dfa.accepts_nothing, true);
    ]
  in
  List.iter
    (fun (name, dfa, expect_empty) ->
      let t = Dfa_reduction.of_dfa dfa in
      let (verdict, secs) = time (fun () -> Dfa_reduction.semi_decide ~max_tuples:3 t) in
      let shown =
        match verdict with
        | Rcdp.Refuted cex ->
          Printf.sprintf "refuted — counterexample adds %d tuple(s)"
            (Database.total_tuples cex.Rcdp.cex_extension)
        | Rcdp.No_counterexample { max_tuples; _ } ->
          Printf.sprintf "no counterexample up to %d tuples" max_tuples
      in
      let agree =
        match verdict with
        | Rcdp.Refuted _ -> not expect_empty
        | Rcdp.No_counterexample _ -> expect_empty
      in
      Printf.printf "  %-22s: %-46s %6.2fs  %s\n" name shown secs
        (if agree then "[agrees with simulator]" else "[MISMATCH]"))
    cases

let table1_sigma2_inds () =
  row "(CQ/UCQ/∃FO⁺, INDs)" ~paper:"Σ₂ᵖ-complete" ~procedure:"exact valuation search (Thm 3.6(1), Cor 3.7)";
  Printf.printf "  ∀*∃*-3SAT reduction instances (fixed Dm and V!): verdict agreement + scaling\n";
  List.iter
    (fun (n_forall, n_exists, n_clauses, seeds) ->
      let agree = ref 0 and total = ref 0 and worst = ref 0.0 in
      List.iter
        (fun seed ->
          let fe = Sat.random_fe ~seed ~n_forall ~n_exists ~n_clauses in
          let inst = Rcdp_hardness.of_fe fe in
          let (got, secs) = time (fun () -> Rcdp_hardness.decide inst) in
          incr total;
          if got = Rcdp_hardness.expected fe then incr agree;
          if secs > !worst then worst := secs)
        seeds;
      Printf.printf "    ∀%d∃%d, %d clauses : agreement %d/%d, worst time %6.3fs\n" n_forall
        n_exists n_clauses !agree !total !worst)
    [
      (1, 1, 2, [ 1; 2; 3; 4 ]);
      (2, 2, 3, [ 1; 2; 3; 4 ]);
      (3, 2, 4, [ 1; 2 ]);
      (3, 3, 4, [ 1 ]);
    ]

let table1_sigma2_cq () =
  row "(CQ, CQ) etc." ~paper:"Σ₂ᵖ-complete" ~procedure:"exact valuation search (Thm 3.6(2-4))";
  Printf.printf
    "  The same ∀∃3SAT instances with the INDs treated as generic CQ constraints\n\
    \  (an IND is a CC whose query is a projection CQ) — the condition-C2 path:\n";
  List.iter
    (fun (n_forall, n_exists, n_clauses, seeds) ->
      let agree = ref 0 and total = ref 0 and worst = ref 0.0 in
      List.iter
        (fun seed ->
          let fe = Sat.random_fe ~seed ~n_forall ~n_exists ~n_clauses in
          let inst = Rcdp_hardness.of_fe fe in
          let (got, secs) = time (fun () -> Rcdp_hardness.decide ~ind_fast:false inst) in
          incr total;
          if got = Rcdp_hardness.expected fe then incr agree;
          if secs > !worst then worst := secs)
        seeds;
      Printf.printf "    ∀%d∃%d, %d clauses : agreement %d/%d, worst time %6.3fs\n" n_forall
        n_exists n_clauses !agree !total !worst)
    [ (1, 1, 2, [ 1; 2; 3 ]); (2, 2, 3, [ 1; 2; 3 ]); (3, 2, 4, [ 1 ]) ];
  (* a Complete verdict on CRM data requires exhausting the whole
     valuation space — this is where pruning shows *)
  let master = Crm.master ~customers:4 ~managers:[] () in
  let db = Crm.db ~master ~keep:1.0 ~supported_by:[ ("e0", [ "d0" ]) ] () in
  let stats = ref { Rcdp.valuations_visited = 0; branches_pruned = 0 } in
  let (verdict, secs) =
    time (fun () ->
        Rcdp.decide ~collect_stats:stats ~schema:Crm.db_schema ~master
          ~ccs:[ Crm.cc_domestic_customers ] ~db (Lang.Q_cq Crm.q0))
  in
  Printf.printf "    CRM Q0 (complete case, search exhausts): %s in %6.3fs (%d leaves, %d pruned)\n"
    (match verdict with Rcdp.Complete -> "complete" | Rcdp.Incomplete _ -> "incomplete")
    secs !stats.Rcdp.valuations_visited !stats.Rcdp.branches_pruned;
  (* UCQ and ∃FO⁺ route through the same engine *)
  let q2e1 = Cq.make ~head:[ v "c" ] [ Atom.make "Supt" [ Term.str "e1"; v "d"; v "c" ] ] in
  let ucq = Ucq.make [ Crm.q2; q2e1 ] in
  let (verdict, secs) =
    time (fun () ->
        Rcdp.decide ~schema:Crm.db_schema ~master ~ccs:[ Crm.cc_support_load 4 ] ~db
          (Lang.Q_ucq ucq))
  in
  Printf.printf "    UCQ (customers of e0 ∪ of e1), cap 4: %s in %6.3fs\n"
    (match verdict with Rcdp.Complete -> "complete" | Rcdp.Incomplete _ -> "incomplete")
    secs;
  let efo =
    Efo.make ~head:[ v "c" ]
      (Efo.Or
         ( Efo.Atom (Atom.make "Supt" [ Term.str "e0"; v "d"; v "c" ]),
           Efo.Atom (Atom.make "Supt" [ Term.str "e1"; v "d"; v "c" ]) ))
  in
  let (verdict, secs) =
    time (fun () ->
        Rcdp.decide ~schema:Crm.db_schema ~master ~ccs:[ Crm.cc_support_load 4 ] ~db
          (Lang.Q_efo efo))
  in
  Printf.printf "    ∃FO⁺ (same query as a disjunction): %s in %6.3fs\n"
    (match verdict with Rcdp.Complete -> "complete" | Rcdp.Incomplete _ -> "incomplete")
    secs

let table1_data_complexity () =
  row "data complexity" ~paper:"(combined bounds are Σ₂ᵖ)"
    ~procedure:"fixed Q and V, growing data";
  Printf.printf
    "  The Σ₂ᵖ bounds are in the size of Q and V.  With both fixed, the valuation space\n\
    \  is |Adom|^|vars(T_Q)| — polynomial in the data (PTIME data complexity):\n";
  List.iter
    (fun customers ->
      let master = Crm.master ~customers ~managers:[] () in
      let db = Crm.db ~master ~keep:1.0 ~supported_by:[ ("e0", [ "d0" ]) ] () in
      let (verdict, secs) =
        time (fun () ->
            Rcdp.decide ~schema:Crm.db_schema ~master ~ccs:[ Crm.cc_domestic_customers ] ~db
              (Lang.Q_cq Crm.q0))
      in
      Printf.printf "    %4d master customers : %s in %7.3fs\n" customers
        (match verdict with Rcdp.Complete -> "complete" | Rcdp.Incomplete _ -> "incomplete")
        secs)
    [ 4; 8; 16 ]

let table1 () =
  hr "Table I — RCDP(LQ, LC): paper bound vs. measured behaviour";
  table1_undecidable_fo_cq ();
  table1_undecidable_cq_fo ();
  table1_undecidable_fp ();
  Printf.printf "\n-- (fixed FP, FP)       paper: undecidable        procedure: same DFA machinery;\n";
  Printf.printf "   the Theorem 3.1(4) appendix construction swaps query and constraint roles.\n";
  table1_sigma2_inds ();
  table1_sigma2_cq ();
  table1_data_complexity ()

(* ================================================================== *)
(* Table II — RCQP                                                     *)
(* ================================================================== *)

let table2_undecidable () =
  row "(FO/FP rows)" ~paper:"undecidable" ~procedure:"bounded witness search (Thm 4.1)";
  let schema = Schema.make [ Schema.relation "U" [ Schema.attribute "x" ] ] in
  let master = Database.empty (Schema.make []) in
  let fo_cc =
    Containment.make ~name:"le1"
      (Lang.Q_fo
         (Fo.make ~head:[ v "x"; v "y" ]
            (Fo.And
               ( Fo.Atom (Atom.make "U" [ v "x" ]),
                 Fo.And (Fo.Atom (Atom.make "U" [ v "y" ]), Fo.neq (v "x") (v "y")) ))))
      Projection.Empty
  in
  let q = Cq.make ~head:[ v "x" ] [ Atom.make "U" [ v "x" ] ] in
  (try
     ignore (Rcqp.decide ~schema ~master ~ccs:[ fo_cc ] (Lang.Q_cq q));
     Printf.printf "  exact decider : FAILED to refuse\n"
   with Rcqp.Unsupported _ -> Printf.printf "  exact decider : correctly refuses FO constraints\n");
  (match Rcqp.semi_decide ~max_tuples:1 ~schema ~master ~ccs:[ fo_cc ] (Lang.Q_cq q) with
   | Rcqp.Plausibly_nonempty { witness; checked_up_to } ->
     Printf.printf
       "  semi-decision : plausible witness with %d tuple(s), no counterexample up to %d added tuples\n"
       (Database.total_tuples witness) checked_up_to
   | Rcqp.No_witness_found { candidates_tried } ->
     Printf.printf "  semi-decision : no witness among %d candidates\n" candidates_tried)

let table2_conp_inds () =
  row "(CQ/UCQ/∃FO⁺, INDs)" ~paper:"coNP-complete" ~procedure:"syntactic E3/E4 + valuation escape (Prop 4.3)";
  Printf.printf "  3SAT reduction (Thm 4.5(1)): φ satisfiable ⟺ RCQ empty; fixed Dm, V\n";
  List.iter
    (fun (n_vars, n_clauses, seeds) ->
      let agree = ref 0 and total = ref 0 and worst = ref 0.0 in
      List.iter
        (fun seed ->
          let cnf = Sat.random_cnf ~seed ~n_vars ~n_clauses in
          let inst = Rcqp_hardness.of_cnf cnf in
          let (got, secs) = time (fun () -> Rcqp_hardness.decide inst) in
          incr total;
          if got = Rcqp_hardness.expected_nonempty cnf then incr agree;
          if secs > !worst then worst := secs)
        seeds;
      Printf.printf "    %d vars, %2d clauses : agreement %d/%d, worst time %6.3fs\n" n_vars
        n_clauses !agree !total !worst)
    [
      (2, 3, [ 1; 2; 3; 4; 5 ]);
      (3, 5, [ 1; 2; 3; 4; 5 ]);
      (4, 8, [ 1; 2; 3 ]);
      (5, 12, [ 1; 2 ]);
    ];
  (* unsatisfiable instances exercise the nonempty side *)
  let unsat =
    {
      Sat.n_vars = 2;
      clauses =
        [
          (Sat.lit 0, Sat.lit 0, Sat.lit 0);
          (Sat.lit ~neg:true 0, Sat.lit ~neg:true 0, Sat.lit ~neg:true 0);
        ];
    }
  in
  let inst = Rcqp_hardness.of_cnf unsat in
  Printf.printf "    crafted unsat instance : %s  [expected nonempty]\n"
    (if Rcqp_hardness.decide inst then "nonempty" else "empty")

let table2_nexptime () =
  row "(CQ, CQ) etc." ~paper:"NEXPTIME-complete" ~procedure:"E1/E2 valuation-set search (Thm 4.5(2))";
  Printf.printf "  2×2 tiling reduction instances:\n";
  List.iter
    (fun (name, p) ->
      let inst = Tiling.of_problem p in
      let (verdict, secs) = time (fun () -> Tiling.decide inst) in
      let expected = if Tiling.solvable_2x2 p then "nonempty" else "empty" in
      Printf.printf "    %-14s: %-9s (expected %-9s) %7.3fs  %s\n" name
        (Rcqp.verdict_name verdict) expected secs
        (if Rcqp.verdict_name verdict = expected then "[ok]" else "[MISMATCH]")
    )
    [
      ("free 2 tiles", Tiling.free_problem 2);
      ("free 3 tiles", Tiling.free_problem 3);
      ("striped", Tiling.striped);
      ("unsolvable", Tiling.unsolvable);
      ("wrong corner", { Tiling.striped with Tiling.t0 = 1 });
    ];
  Printf.printf "  Example 4.1 family (CQ constraints from FDs):\n";
  let master = Crm.master ~customers:3 ~managers:[] () in
  List.iter
    (fun (name, ccs, q, expected) ->
      let (verdict, secs) = time (fun () -> Rcqp.decide ~schema:Crm.db_schema ~master ~ccs (Lang.Q_cq q)) in
      Printf.printf "    %-22s: %-9s (expected %-9s) %7.3fs\n" name (Rcqp.verdict_name verdict)
        expected secs)
    [
      ("Q4 under eid→dept", Crm.ccs_fd_dept, Crm.q4, "nonempty");
      ("Q2 under eid→dept", Crm.ccs_fd_dept, Crm.q2_tuples, "empty");
      ("Q2 under eid→dept,cid", Crm.ccs_fd_supt, Crm.q2_tuples, "nonempty");
    ]

let table2_sigma3_fixed () =
  row "fixed Dm, V" ~paper:"Σ₃ᵖ-complete" ~procedure:"Corollary 4.6 reduction (∃∀∃3SAT)";
  Printf.printf "  ∃*∀*∃*-3SAT instances through the Corollary 4.6 construction:\n";
  let l ?neg var = Sat.lit ?neg var in
  let cases =
    [
      ( "∃x∀y∃z true",
        Sat.make_efe ~n_exists1:1 ~n_forall:1 ~n_exists2:1
          [ (l 0, l 0, l 0); (l 1, l 2, l 2) ] );
      ("∃x∀y false", Sat.make_efe ~n_exists1:1 ~n_forall:1 ~n_exists2:1 [ (l 1, l 1, l 1) ]);
      ( "∃x∀y∃z z:=y",
        Sat.make_efe ~n_exists1:1 ~n_forall:1 ~n_exists2:1
          [ (l 0, l ~neg:true 1, l 2); (l ~neg:true 0, l 1, l ~neg:true 2) ] );
      ( "∃x²∀y∃z",
        Sat.make_efe ~n_exists1:2 ~n_forall:1 ~n_exists2:1
          [ (l 0, l 1, l 2); (l ~neg:true 0, l 2, l 3) ] );
    ]
  in
  List.iter
    (fun (name, e) ->
      let inst = Sigma3_hardness.of_efe e in
      let expected = if Sigma3_hardness.expected_nonempty e then "nonempty" else "empty" in
      let (verdict, secs) = time (fun () -> Sigma3_hardness.decide inst) in
      Printf.printf "    %-14s: %-9s (expected %-9s) %7.3fs  %s\n" name
        (Rcqp.verdict_name verdict) expected secs
        (if Rcqp.verdict_name verdict = expected then "[ok]" else "[MISMATCH]"))
    cases;
  Printf.printf "  Fixed-V query sweep (V = {eid → dept}, only Q grows):\n";
  let master = Crm.master ~customers:3 ~managers:[] () in
  List.iter
    (fun k ->
      let atoms =
        List.init k (fun j ->
            Atom.make "Supt"
              [ Term.str "e0"; v (Printf.sprintf "d%d" j); v (Printf.sprintf "c%d" j) ])
      in
      let q = Cq.make ~head:(List.init k (fun j -> v (Printf.sprintf "c%d" j))) atoms in
      let (verdict, secs) =
        time (fun () -> Rcqp.decide ~schema:Crm.db_schema ~master ~ccs:Crm.ccs_fd_dept (Lang.Q_cq q))
      in
      Printf.printf "    %d-atom query : %-9s %7.3fs\n" k (Rcqp.verdict_name verdict) secs)
    [ 1; 2; 3 ]

let table2 () =
  hr "Table II — RCQP(LQ, LC): paper bound vs. measured behaviour";
  table2_undecidable ();
  table2_conp_inds ();
  table2_nexptime ();
  table2_sigma3_fixed ()

(* ================================================================== *)
(* Proposition 2.1                                                     *)
(* ================================================================== *)

let prop21 () =
  hr "Proposition 2.1 — integrity constraints as containment constraints";
  let schema =
    Schema.make
      [
        Schema.relation "R" [ Schema.attribute "a"; Schema.attribute "b"; Schema.attribute "c" ];
      ]
  in
  let empty_master = Database.empty (Schema.make []) in
  let fd = Fd.make ~rel:"R" ~lhs:[ 0 ] ~rhs:[ 1 ] () in
  let cfd =
    Cfd.make ~rel:"R" ~lhs:[ 0 ] ~lhs_pattern:[ (0, Value.int 1) ] ~rhs:[ 1 ]
      ~rhs_pattern:[ (1, Value.int 2) ] ()
  in
  let fd_ccs = Translate.of_fd schema fd in
  let cfd_ccs = Translate.of_cfd schema cfd in
  let random_db seed size =
    let state = ref seed in
    let rand bound =
      state := ((!state * 1103515245) + 12345) land 0x3FFFFFFF;
      !state mod bound
    in
    Database.of_list schema
      [ ("R", Relation.of_int_rows (List.init size (fun _ -> List.init 3 (fun _ -> rand 3)))) ]
  in
  let trials = 400 in
  let fd_agree = ref 0 and cfd_agree = ref 0 in
  let direct_time = ref 0.0 and cc_time = ref 0.0 in
  for seed = 1 to trials do
    let d = random_db seed (seed mod 7) in
    let (direct, t1) = time (fun () -> Fd.holds d fd) in
    let (via_cc, t2) = time (fun () -> Containment.holds_all ~db:d ~master:empty_master fd_ccs) in
    direct_time := !direct_time +. t1;
    cc_time := !cc_time +. t2;
    if direct = via_cc then incr fd_agree;
    if Cfd.holds d cfd = Containment.holds_all ~db:d ~master:empty_master cfd_ccs then
      incr cfd_agree
  done;
  Printf.printf "  FD  ⟺ CC translation : %d/%d agreement\n" !fd_agree trials;
  Printf.printf "  CFD ⟺ CC translation : %d/%d agreement\n" !cfd_agree trials;
  Printf.printf "  checking cost: direct %.1f µs/db, via CQ containment constraints %.1f µs/db\n"
    (1e6 *. !direct_time /. float_of_int trials)
    (1e6 *. !cc_time /. float_of_int trials)

(* ================================================================== *)
(* Characterisations                                                   *)
(* ================================================================== *)

let chars () =
  hr "Characterisations — C1/C2 counterexamples and E1-E4 witnesses verify";
  let master = Crm.master ~customers:5 ~managers:[] () in
  let ccs = [ Crm.cc_domestic_customers ] in
  let total = ref 0 and verified = ref 0 in
  for seed = 1 to 12 do
    let keep = float_of_int (30 + (seed * 5)) /. 100. in
    let db = Crm.db ~seed ~master ~keep ~supported_by:[ ("e0", [ "d0" ]) ] () in
    match Rcdp.decide ~schema:Crm.db_schema ~master ~ccs ~db (Lang.Q_cq Crm.q0) with
    | Rcdp.Complete -> ()
    | Rcdp.Incomplete cex ->
      incr total;
      let extended = Database.union db cex.Rcdp.cex_extension in
      if
        Containment.holds_all ~db:extended ~master ccs
        && Relation.mem cex.Rcdp.cex_answer (Cq.eval extended Crm.q0)
        && not (Relation.mem cex.Rcdp.cex_answer (Cq.eval db Crm.q0))
      then incr verified
  done;
  Printf.printf "  RCDP counterexamples (condition C2 witnesses): %d/%d verified real\n"
    !verified !total;
  let w_total = ref 0 and w_ok = ref 0 in
  List.iter
    (fun (ccs, q) ->
      match Rcqp.decide ~schema:Crm.db_schema ~master ~ccs (Lang.Q_cq q) with
      | Rcqp.Nonempty { witness = Some w; _ } ->
        incr w_total;
        if
          Containment.holds_all ~db:w ~master ccs
          && Rcdp.decide ~schema:Crm.db_schema ~master ~ccs ~db:w (Lang.Q_cq q) = Rcdp.Complete
        then incr w_ok
      | _ -> ())
    [
      (Crm.ccs_fd_dept, Crm.q4);
      (Crm.ccs_fd_supt, Crm.q2_tuples);
      ([ Crm.cc_support_load 2 ], Crm.q2);
    ];
  Printf.printf "  RCQP witnesses (condition E2 constructions)  : %d/%d verified complete\n"
    !w_ok !w_total

(* ================================================================== *)
(* Ablations                                                           *)
(* ================================================================== *)

let ablation () =
  hr "Ablations — the design choices DESIGN.md calls out";
  (* 1. greedy vs naive atom order in the join engine *)
  let schema = Schema.make [ Schema.relation "E" [ Schema.attribute "s"; Schema.attribute "d" ] ] in
  let d =
    Database.of_list schema
      [ ("E", Relation.of_int_rows (List.init 120 (fun i -> [ i mod 40; (i * 7) mod 40 ]))) ]
  in
  let atoms =
    [
      Atom.make "E" [ v "a"; v "b" ];
      Atom.make "E" [ v "b"; v "c" ];
      Atom.make "E" [ v "c"; Term.int 1 ];
    ]
  in
  let lookup r = try Database.relation d r with Not_found -> Relation.empty in
  let count naive =
    let n = ref 0 in
    let (_ : bool) =
      Match_engine.solve ~lookup ~naive atoms (fun _ ->
          incr n;
          false)
    in
    !n
  in
  let (n1, t_greedy) = time (fun () -> count false) in
  let (n2, t_naive) = time (fun () -> count true) in
  assert (n1 = n2);
  Printf.printf
    "  join engine : greedy order + hash index %.1f µs vs naive scan %.1f µs (same %d \
     matches, %.1fx)\n"
    (1e6 *. t_greedy) (1e6 *. t_naive) n1 (t_naive /. (t_greedy +. 1e-9));
  (* 2. semi-naive vs naive datalog *)
  let chain n =
    Database.of_list schema
      [ ("E", Relation.of_int_rows (List.init n (fun k -> [ k; k + 1 ]))) ]
  in
  let tc = Datalog.transitive_closure ~edge:"E" ~out:"tc" in
  let d = chain 60 in
  let (_, t_semi) = time (fun () -> Datalog.eval ~strategy:Datalog.Seminaive d tc) in
  let (_, t_naive) = time (fun () -> Datalog.eval ~strategy:Datalog.Naive d tc) in
  Printf.printf "  datalog     : semi-naive %.1f ms vs naive %.1f ms on a 60-chain (%.1fx)\n"
    (1e3 *. t_semi) (1e3 *. t_naive) (t_naive /. (t_semi +. 1e-9));
  (* 3. IND fast path (condition C3) vs generic check (condition C2) *)
  let fe = Sat.random_fe ~seed:5 ~n_forall:2 ~n_exists:2 ~n_clauses:3 in
  let inst = Rcdp_hardness.of_fe fe in
  let (r1, t_fast) = time (fun () -> Rcdp_hardness.decide ~ind_fast:true inst) in
  let (r2, t_slow) = time (fun () -> Rcdp_hardness.decide ~ind_fast:false inst) in
  assert (r1 = r2);
  Printf.printf "  C3 vs C2    : IND fast path %.1f ms vs generic %.1f ms (%.1fx)\n"
    (1e3 *. t_fast) (1e3 *. t_slow) (t_slow /. (t_fast +. 1e-9));
  (* 4. query minimization before the RCDP search *)
  let master = Crm.master ~customers:4 ~managers:[] () in
  let db = Crm.db ~master ~keep:1.0 ~supported_by:[ ("e0", [ "d0" ]) ] () in
  let redundant =
    (* Q0 with two redundant copies of the Cust atom: 9 variables
       instead of 3 before minimization *)
    Cq.make
      ~head:[ v "c"; v "n" ]
      [
        Atom.make "Cust" [ v "c"; v "n"; Term.str "01"; Term.str "908"; v "p" ];
        Atom.make "Cust" [ v "c"; v "n2"; Term.str "01"; Term.str "908"; v "p2" ];
        Atom.make "Cust" [ v "c"; v "n3"; Term.str "01"; Term.str "908"; v "p3" ];
      ]
  in
  let run minimize =
    Rcdp.decide ~minimize ~schema:Crm.db_schema ~master ~ccs:[ Crm.cc_domestic_customers ]
      ~db (Lang.Q_cq redundant)
  in
  let (r1, t_min) = time (fun () -> run true) in
  let (r2, t_raw) = time (fun () -> run false) in
  assert ((r1 = Rcdp.Complete) = (r2 = Rcdp.Complete));
  Printf.printf
    "  minimization: core-first %.1f ms vs raw 9-variable query %.1f ms (%.1fx)\n"
    (1e3 *. t_min) (1e3 *. t_raw) (t_raw /. (t_min +. 1e-9));
  (* 5. pruning effectiveness in the RCDP search (a complete-case
     verdict, so the search exhausts the space) *)
  let stats = ref { Rcdp.valuations_visited = 0; branches_pruned = 0 } in
  ignore
    (Rcdp.decide ~collect_stats:stats ~schema:Crm.db_schema ~master
       ~ccs:[ Crm.cc_domestic_customers ] ~db (Lang.Q_cq Crm.q0));
  Printf.printf
    "  C2 pruning  : %d leaves visited, %d subtrees pruned by CC checks\n"
    !stats.Rcdp.valuations_visited !stats.Rcdp.branches_pruned

(* ================================================================== *)
(* Bechamel micro-benchmarks                                           *)
(* ================================================================== *)

let micro () =
  hr "Micro-benchmarks (bechamel; one group per table)";
  let open Bechamel in
  (* Table-I flavoured core operation: one Σ₂ᵖ RCDP decision *)
  let fe = Sat.random_fe ~seed:1 ~n_forall:1 ~n_exists:1 ~n_clauses:2 in
  let rcdp_inst = Rcdp_hardness.of_fe fe in
  let t_table1 =
    Test.make ~name:"table1/rcdp-sigma2p"
      (Staged.stage (fun () -> ignore (Rcdp_hardness.decide rcdp_inst)))
  in
  (* Table-II flavoured core operation: one coNP RCQP decision *)
  let cnf = Sat.random_cnf ~seed:1 ~n_vars:2 ~n_clauses:3 in
  let rcqp_inst = Rcqp_hardness.of_cnf cnf in
  let t_table2 =
    Test.make ~name:"table2/rcqp-conp"
      (Staged.stage (fun () -> ignore (Rcqp_hardness.decide rcqp_inst)))
  in
  (* substrate micro-benchmarks *)
  let schema = Schema.make [ Schema.relation "E" [ Schema.attribute "s"; Schema.attribute "d" ] ] in
  let d =
    Database.of_list schema
      [ ("E", Relation.of_int_rows (List.init 60 (fun i -> [ i mod 20; (i * 3) mod 20 ]))) ]
  in
  let q2hop =
    Cq.make ~head:[ v "x"; v "z" ]
      [ Atom.make "E" [ v "x"; v "y" ]; Atom.make "E" [ v "y"; v "z" ] ]
  in
  let t_cq = Test.make ~name:"substrate/cq-2hop-join" (Staged.stage (fun () -> ignore (Cq.eval d q2hop))) in
  let tc = Datalog.transitive_closure ~edge:"E" ~out:"tc" in
  let t_fp = Test.make ~name:"substrate/datalog-tc" (Staged.stage (fun () -> ignore (Datalog.eval d tc))) in
  let tests = Test.make_grouped ~name:"ric" [ t_table1; t_table2; t_cq; t_fp ] in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |] in
  let instances = [ Toolkit.Instance.monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:1000 ~quota:(Time.second 0.4) () in
  let raw = Benchmark.all cfg instances tests in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  let rows = Hashtbl.fold (fun name ols acc -> (name, ols) :: acc) results [] in
  List.iter
    (fun (name, ols) ->
      match Analyze.OLS.estimates ols with
      | Some [ est ] -> Printf.printf "  %-28s %12.1f ns/run\n" name est
      | _ -> Printf.printf "  %-28s (no estimate)\n" name)
    (List.sort compare rows)

(* ================================================================== *)
(* Search modes: seq vs par                                            *)
(* ================================================================== *)

(* One machine-readable artefact, BENCH_search.json: fixed-step-budget
   throughput of the two valuation-search strategies on the hostile
   scenarios/hard.ric instance (both modes perform the same number of
   search steps, so steps-per-second isolates the per-step cost), plus
   a verdict-agreement sweep over every scenario file — the strategies
   must be distinguishable only by speed, never by verdict.  The host's
   core count is recorded with the figures: the par numbers mean
   nothing without it. *)

let search_bench () =
  hr "Search modes (seq / par) on scenarios/hard.ric";
  let module Scenario = Ric_text.Scenario in
  let module Json = Ric_text.Json in
  let dir =
    (* repo root when run via `dune exec bench/main.exe`; the _build
       fallback covers runs from inside the build tree *)
    if Sys.file_exists "scenarios" then "scenarios" else "../../../scenarios"
  in
  let step_cap =
    match Sys.getenv_opt "RIC_BENCH_STEPS" with
    | Some s -> (try int_of_string (String.trim s) with Failure _ -> 400_000)
    | None -> 400_000
  in
  let modes = [ Search_mode.Seq; Search_mode.Par 4 ] in
  let decide_labelled ~clock ~search (s : Scenario.t) q =
    match
      Rcdp.decide ~clock ~search ~schema:s.Scenario.db_schema ~master:s.Scenario.master
        ~ccs:(Scenario.all_ccs s) ~db:s.Scenario.db q
    with
    | Rcdp.Complete -> "complete"
    | Rcdp.Incomplete _ -> "incomplete"
    | exception Rcdp.Unsupported _ -> "unsupported"
    | exception Rcdp.Not_partially_closed _ -> "not_partially_closed"
    | exception Budget.Exhausted reason -> "timeout:" ^ Budget.reason_name reason
  in
  (* throughput on the hostile instance *)
  let hard = Scenario.load (Filename.concat dir "hard.ric") in
  let qh =
    match Scenario.find_query hard "QH" with
    | Some q -> q
    | None -> failwith "hard.ric has no query QH"
  in
  (* interleaved best-of-five: steps/s feeds the check.sh regression
     guard and the par-vs-seq gate, and both compare modes measured by
     the same bench run — so each round times every mode once and the
     per-mode best is taken across rounds.  Back-to-back repeats would
     let one transient load spike sink whichever mode's window it hit;
     interleaving spreads it over all of them.  Each mode also records
     how often the interning mutex was taken per million search steps
     — the lock-free fast path's headline number (the acceptance bar
     is a >= 10x reduction in par mode vs the old per-row locking,
     which took the mutex on every step). *)
  let run_once mode =
    let locks0 = Intern.lock_acquisitions () in
    let clock = Budget.create ~max_steps:step_cap () in
    let (label, secs) =
      time (fun () -> decide_labelled ~clock ~search:mode hard qh)
    in
    (label, Budget.steps clock, secs, Intern.lock_acquisitions () - locks0)
  in
  ignore (run_once Search_mode.Seq) (* warm-up: page in scenario + code *);
  let table = List.map (fun m -> (m, ref None, ref 0, ref 0)) modes in
  (* the par-vs-seq gate compares the two modes within the same round
     (measurements seconds apart) and keeps the best round: run-to-run
     load on a shared host swings absolute steps/s by ~10%, which would
     drown the 5% gate, while a real coordination regression shows up
     in every round *)
  let pair_ratio = ref 0.0 in
  for _ = 1 to 5 do
    let sps_now =
      List.map
        (fun (m, best, locks, steps_sum) ->
          let (label, steps, secs, lock_acq) = run_once m in
          locks := !locks + lock_acq;
          steps_sum := !steps_sum + steps;
          (match !best with
          | Some (_, _, best_secs) when best_secs <= secs -> ()
          | _ -> best := Some (label, steps, secs));
          (m, float_of_int steps /. (secs +. 1e-9)))
        table
    in
    match
      ( List.assoc_opt Search_mode.Seq sps_now,
        List.assoc_opt (Search_mode.Par 4) sps_now )
    with
    | Some s, Some p when s > 0. -> pair_ratio := Float.max !pair_ratio (p /. s)
    | _ -> ()
  done;
  let runs =
    List.map
      (fun (m, best, locks, steps_sum) ->
        let (label, steps, secs) = Option.get !best in
        let lock_per_msteps =
          1e6 *. float_of_int !locks /. float_of_int (max 1 !steps_sum)
        in
        let sps = float_of_int steps /. (secs +. 1e-9) in
        Printf.printf
          "  %-6s %-22s %9d steps in %7.1f ms  (%10.0f steps/s, %.2f intern \
           locks/Msteps)\n"
          (Search_mode.to_string m) label steps (1e3 *. secs) sps
          lock_per_msteps;
        (m, label, steps, secs, sps, lock_per_msteps))
      table
  in
  let sps_of m =
    match List.find_opt (fun (m', _, _, _, _, _) -> m' = m) runs with
    | Some (_, _, _, _, sps, _) -> sps
    | None -> nan
  in
  let speedup m = sps_of m /. sps_of Search_mode.Seq in
  Printf.printf "  speedup vs seq: par:4 %.2fx (best paired round %.2fx)\n"
    (speedup (Search_mode.Par 4)) !pair_ratio;
  (* scaling sweep: RIC_SEARCH_FORCE_WORKERS un-clamps the worker count
     so par:N really spawns N domains even on a small host.  On a
     1-core box wall clock cannot scale — what the sweep asserts is
     that the frontier works: steals happen (tasks cross workers) and
     every worker executes steps (utilisation), recorded per N for the
     check.sh gate and EXPERIMENTS.  Exits nonzero if a forced
     multi-worker run steals nothing — that means the frontier
     degenerated to one sequential branch. *)
  let m_steals =
    Ric_obs.Metrics.counter
      ~help:"frontier tasks popped by a worker other than their producer"
      "ric_search_steal_total"
  in
  let m_worker_steps w =
    Ric_obs.Metrics.counter
      ~help:"search steps executed per parallel worker (utilisation)"
      ~labels:[ ("worker", string_of_int w) ]
      "ric_search_worker_steps_total"
  in
  let steal_gate_failed = ref false in
  let scaling =
    List.map
      (fun w ->
        Unix.putenv "RIC_SEARCH_FORCE_WORKERS" (string_of_int w);
        let steals0 = Ric_obs.Metrics.counter_value m_steals in
        let per_worker0 =
          List.init w (fun i -> Ric_obs.Metrics.counter_value (m_worker_steps i))
        in
        let clock = Budget.create ~max_steps:step_cap () in
        let (label, secs) =
          time (fun () ->
            decide_labelled ~clock ~search:(Search_mode.Par w) hard qh)
        in
        Unix.putenv "RIC_SEARCH_FORCE_WORKERS" "";
        let steps = Budget.steps clock in
        let sps = float_of_int steps /. (secs +. 1e-9) in
        let steals = Ric_obs.Metrics.counter_value m_steals - steals0 in
        let per_worker =
          List.mapi
            (fun i v0 -> Ric_obs.Metrics.counter_value (m_worker_steps i) - v0)
            per_worker0
        in
        let busy = List.length (List.filter (fun s -> s > 0) per_worker) in
        if w > 1 && steals = 0 then begin
          steal_gate_failed := true;
          Printf.printf
            "  STEAL GATE: par:%d with forced workers performed 0 steals\n" w
        end;
        Printf.printf
          "  par:%d forced %-22s %9d steps (%10.0f steps/s) steals %d, \
           workers busy %d/%d [%s]\n"
          w label steps sps steals busy w
          (String.concat " " (List.map string_of_int per_worker));
        Json.Obj
          [
            ("workers", Json.Int w);
            ("verdict", Json.Str label);
            ("steps", Json.Int steps);
            ("steps_per_sec", Json.Int (int_of_float sps));
            ("steals", Json.Int steals);
            ("workers_busy", Json.Int busy);
            ("worker_steps", Json.List (List.map (fun s -> Json.Int s) per_worker));
          ])
      [ 1; 2; 4 ]
  in
  (* verdict agreement across every scenario file and query *)
  let files =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".ric")
    |> List.sort compare
  in
  let all_agree = ref true in
  let agreement =
    List.concat_map
      (fun file ->
        let s = Scenario.load (Filename.concat dir file) in
        List.map
          (fun (qname, q) ->
            let labels =
              List.map
                (fun mode ->
                  let clock = Budget.create ~max_steps:step_cap () in
                  decide_labelled ~clock ~search:mode s q)
                modes
            in
            let agree =
              match labels with [] -> true | l :: rest -> List.for_all (( = ) l) rest
            in
            if not agree then begin
              all_agree := false;
              Printf.printf "  DIVERGENCE %s/%s: %s\n" file qname
                (String.concat " vs " labels)
            end;
            Json.Obj
              [
                ("scenario", Json.Str file);
                ("query", Json.Str qname);
                ("verdicts", Json.List (List.map (fun l -> Json.Str l) labels));
                ("agree", Json.Bool agree);
              ])
          s.Scenario.queries)
      files
  in
  Printf.printf "  verdict agreement over %d scenario queries: %s\n"
    (List.length agreement) (if !all_agree then "OK" else "FAILED");
  let json =
    Json.Obj
      [
        ("bench", Json.Str "search_modes");
        ("scenario", Json.Str "scenarios/hard.ric");
        ("query", Json.Str "QH");
        ("step_cap", Json.Int step_cap);
        ("nproc", Json.Int (Stdlib.Domain.recommended_domain_count ()));
        ( "modes",
          Json.List
            (List.map
               (fun (mode, label, steps, secs, sps, lock_per_msteps) ->
                 Json.Obj
                   [
                     ("mode", Json.Str (Search_mode.to_string mode));
                     ("verdict", Json.Str label);
                     ("steps", Json.Int steps);
                     ("elapsed_ms", Json.Int (int_of_float (1e3 *. secs)));
                     ("steps_per_sec", Json.Int (int_of_float sps));
                     ( "intern_lock_acq_per_msteps",
                       Json.Str (Printf.sprintf "%.2f" lock_per_msteps) );
                   ])
               runs) );
        ("speedup_par_vs_seq", Json.Str (Printf.sprintf "%.2f" (speedup (Search_mode.Par 4))));
        ( "par_vs_seq_best_round_ratio_pct",
          Json.Int (int_of_float (100. *. !pair_ratio)) );
        ("scaling", Json.List scaling);
        ("agreement", Json.List agreement);
        ("all_agree", Json.Bool !all_agree);
      ]
  in
  let out = Sys.getenv_opt "RIC_BENCH_OUT" |> Option.value ~default:"BENCH_search.json" in
  let oc = open_out out in
  output_string oc (Json.to_string json);
  output_char oc '\n';
  close_out oc;
  Printf.printf "  wrote %s\n" out;
  if not !all_agree then exit 1;
  if !steal_gate_failed then exit 1

(* ================================================================== *)
(* Match kernel microbench                                             *)
(* ================================================================== *)

(* BENCH_match.json: throughput of the compiled slot-addressed kernel
   against the interpreted naive oracle on a fixed three-atom join
   with an inequality, plus interning and index-reuse statistics.  The
   two engines must agree on the solution count (a live differential,
   not just a speed report), and check.sh guards the compiled solves/s
   against the committed baseline. *)

let match_bench () =
  hr "Match kernel: compiled vs naive solve (three-atom join)";
  let module Json = Ric_text.Json in
  let module Metrics = Ric_obs.Metrics in
  let n =
    match Sys.getenv_opt "RIC_BENCH_MATCH_ROWS" with
    | Some s -> (try int_of_string (String.trim s) with Failure _ -> 60)
    | None -> 60
  in
  let sch =
    Schema.make
      [
        Schema.relation "E" [ Schema.attribute "src"; Schema.attribute "dst" ];
        Schema.relation "L" [ Schema.attribute "x" ];
      ]
  in
  (* sparse ring with chords, labels on every third node: small enough
     that the full-scan oracle terminates, joined enough that index
     probes matter *)
  let db =
    let add db rel vals =
      Database.add_tuple db rel (Tuple.make (List.map Value.int vals))
    in
    let db = ref (Database.empty sch) in
    for i = 0 to n - 1 do
      db := add !db "E" [ i; (i + 1) mod n ];
      db := add !db "E" [ i; ((i * 7) + 3) mod n ];
      if i mod 3 = 0 then db := add !db "L" [ i ]
    done;
    !db
  in
  let atoms =
    [
      Atom.make "E" [ v "x"; v "y" ];
      Atom.make "E" [ v "y"; v "z" ];
      Atom.make "L" [ v "z" ];
    ]
  in
  let neqs = [ (v "x", v "z") ] in
  let lookup rel = Database.relation db rel in
  let store = Kernel.Store.create () in
  let solutions naive =
    let c = ref 0 in
    let (_ : bool) =
      Match_engine.solve ~lookup ~neqs ~naive ~store atoms (fun _ ->
          incr c;
          false)
    in
    !c
  in
  let naive_count = solutions true in
  let compiled_count = solutions false in
  Printf.printf "  instance: E %d rows, L %d rows, %d solutions\n"
    (Relation.cardinal (Database.relation db "E"))
    (Relation.cardinal (Database.relation db "L"))
    compiled_count;
  if naive_count <> compiled_count then begin
    Printf.printf "  DIVERGENCE: naive %d vs compiled %d solutions\n"
      naive_count compiled_count;
    exit 1
  end;
  (* solves/s, best of three timed loops calibrated to >= ~0.15 s *)
  let rate f =
    let (_, once) = time f in
    let iters = max 3 (int_of_float (0.15 /. (once +. 1e-9)) + 1) in
    let best = ref 0.0 in
    for _ = 1 to 3 do
      let (), secs =
        time (fun () ->
            for _ = 1 to iters do
              ignore (f ())
            done)
      in
      best := Float.max !best (float_of_int iters /. (secs +. 1e-9))
    done;
    !best
  in
  let naive_sps = rate (fun () -> solutions true) in
  let compiled_sps = rate (fun () -> solutions false) in
  let speedup = compiled_sps /. naive_sps in
  let builds = Metrics.counter "ric_match_index_builds_total" in
  let reuses = Metrics.counter "ric_match_index_reuses_total" in
  Printf.printf "  naive    %12.0f solves/s\n" naive_sps;
  Printf.printf "  compiled %12.0f solves/s  (%.1fx)\n" compiled_sps speedup;
  Printf.printf "  intern entries %d, index builds %d, reuses %d\n"
    (Intern.size ())
    (Metrics.counter_value builds)
    (Metrics.counter_value reuses);
  if speedup < 1.0 then begin
    Printf.printf "  FAIL: compiled kernel slower than the naive oracle\n";
    exit 1
  end;
  let json =
    Json.Obj
      [
        ("bench", Json.Str "match_kernel");
        ("ring_size", Json.Int n);
        ("e_rows", Json.Int (Relation.cardinal (Database.relation db "E")));
        ("l_rows", Json.Int (Relation.cardinal (Database.relation db "L")));
        ("solutions", Json.Int compiled_count);
        ("naive_solves_per_sec", Json.Int (int_of_float naive_sps));
        ("compiled_solves_per_sec", Json.Int (int_of_float compiled_sps));
        ("speedup", Json.Str (Printf.sprintf "%.2f" speedup));
        ("intern_entries", Json.Int (Intern.size ()));
        ("index_builds", Json.Int (Metrics.counter_value builds));
        ("index_reuses", Json.Int (Metrics.counter_value reuses));
      ]
  in
  let out =
    Sys.getenv_opt "RIC_BENCH_MATCH_OUT"
    |> Option.value ~default:"BENCH_match.json"
  in
  let oc = open_out out in
  output_string oc (Json.to_string json);
  output_char oc '\n';
  close_out oc;
  Printf.printf "  wrote %s\n" out

(* ================================================================== *)
(* Constraint mining                                                   *)
(* ================================================================== *)

(* BENCH_mine.json: throughput of the mining pipeline (enumerate →
   prune → kernel-score → accept) on the crm and supply_chain
   scenarios, sequential scoring vs pool-parallel.  The two modes must
   accept the same constraint set (a live differential, not just a
   speed report), and check.sh guards the sequential candidates/s
   against the committed baseline.  On a single-core host the parallel
   figure records pool overhead rather than a win — that is the honest
   number. *)

let mine_bench () =
  hr "Constraint mining: candidates/s (seq vs pool-parallel)";
  let module Json = Ric_text.Json in
  let module Mine = Ric_mining.Mine in
  let dir =
    if Sys.file_exists "scenarios" then "scenarios" else "../../../scenarios"
  in
  let par_workers = 2 in
  let bench_one file =
    let s = Ric_text.Scenario.load (Filename.concat dir file) in
    let open Ric_text.Scenario in
    let run workers =
      Mine.run
        ~config:{ Mine.default with Mine.workers }
        ~db_schema:s.db_schema ~master_schema:s.master_schema ~db:s.db
        ~master:s.master ()
    in
    let keys (r : Mine.result) =
      List.map
        (fun sc -> sc.Ric_mining.Score.candidate.Ric_mining.Enumerate.key)
        r.Mine.accepted_scored
    in
    let seq_r = run 1 in
    let par_r = run par_workers in
    if keys seq_r <> keys par_r then begin
      Printf.printf "  DIVERGENCE on %s: seq accepted %d vs par accepted %d\n"
        file
        (List.length seq_r.Mine.accepted)
        (List.length par_r.Mine.accepted);
      exit 1
    end;
    let enumerated = seq_r.Mine.stats.Mine.enumerated in
    let rate workers =
      let best = ref 0.0 in
      for _ = 1 to 3 do
        let (_ : Mine.result), secs = time (fun () -> run workers) in
        best := Float.max !best (float_of_int enumerated /. (secs +. 1e-9))
      done;
      !best
    in
    let seq_cps = rate 1 in
    let par_cps = rate par_workers in
    Printf.printf "  %-18s %6d candidates, %3d accepted\n" file enumerated
      seq_r.Mine.stats.Mine.accepted;
    Printf.printf "    seq        %12.0f candidates/s\n" seq_cps;
    Printf.printf "    par (w=%d)  %12.0f candidates/s  (%.2fx)\n" par_workers
      par_cps (par_cps /. seq_cps);
    Json.Obj
      [
        ("scenario", Json.Str file);
        ("enumerated", Json.Int enumerated);
        ("accepted", Json.Int seq_r.Mine.stats.Mine.accepted);
        ("seq_candidates_per_sec", Json.Int (int_of_float seq_cps));
        ("par_candidates_per_sec", Json.Int (int_of_float par_cps));
        ("par_workers", Json.Int par_workers);
        ("speedup", Json.Str (Printf.sprintf "%.2f" (par_cps /. seq_cps)));
      ]
  in
  let rows = List.map bench_one [ "crm.ric"; "supply_chain.ric" ] in
  let json = Json.Obj [ ("bench", Json.Str "mine"); ("scenarios", Json.List rows) ] in
  let out =
    Sys.getenv_opt "RIC_BENCH_MINE_OUT" |> Option.value ~default:"BENCH_mine.json"
  in
  let oc = open_out out in
  output_string oc (Json.to_string json);
  output_char oc '\n';
  close_out oc;
  Printf.printf "  wrote %s\n" out

(* ================================================================== *)
(* Ingest: streaming columnar loader vs slurp baseline                 *)
(* ================================================================== *)

(* BENCH_load.json: parse throughput of the streaming columnar .ric
   loader over a ladder of generated master-data files, against the
   pre-streaming slurp-and-fold baseline.  A live differential — both
   loaders must build equal databases on every rung — plus peak RSS
   (VmHWM).  VmHWM is a process-lifetime high-water mark, so the top
   rung streams {e first}, before anything slurps a file whole: the
   peak it reports is the streaming path's own.  check.sh guards the
   headline stream_tuples_per_sec against the committed baseline. *)

let vm_hwm_kb () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> 0
  | ic ->
    let rec go () =
      match input_line ic with
      | exception End_of_file -> 0
      | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
        (try
           Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d"
             (fun kb -> kb)
         with Scanf.Scan_failure _ | Failure _ | End_of_file -> 0)
      | _ -> go ()
    in
    let kb = go () in
    close_in_noerr ic;
    kb

let load_bench () =
  hr "Ingest: streaming columnar loader vs slurp baseline (generated .ric)";
  let module Json = Ric_text.Json in
  let module Scenario = Ric_text.Scenario in
  let top =
    match Sys.getenv_opt "RIC_BENCH_LOAD_TUPLES" with
    | Some s ->
      (try max 1000 (int_of_string (String.trim s)) with Failure _ -> 1_000_000)
    | None -> 1_000_000
  in
  let top = min top Gen.max_tuples in
  let rungs = top :: List.filter (fun n -> n < top) [ 100_000; 10_000 ] in
  let seed = 7 in
  let gen_file tuples =
    let path = Filename.temp_file "ric_bench_load" ".ric" in
    let oc = open_out path in
    Gen.emit Gen.Triple ~tuples ~seed ~rung:1 (output_string oc);
    close_out oc;
    path
  in
  let read_file path =
    let ic = open_in_bin path in
    let n = in_channel_length ic in
    let s = really_input_string ic n in
    close_in_noerr ic;
    s
  in
  let headline = ref (0., 0., 0) (* stream sps, slurp sps, vmhwm kB *) in
  let rung_rows =
    List.map
      (fun tuples ->
        let path = gen_file tuples in
        let rows = Gen.total_rows Gen.Triple ~tuples in
        let is_top = tuples = top in
        (* pre-size the interning structures once: a reserved bulk load
           should never grow them mid-stream *)
        if is_top then Intern.reserve (Intern.size () + (tuples / 10) + 64);
        let growths0 = Intern.growths () in
        let (stream_sc, stream_secs) = time (fun () -> Scenario.load path) in
        let growths = Intern.growths () - growths0 in
        let vmhwm = vm_hwm_kb () in
        let stream_sps = float_of_int rows /. (stream_secs +. 1e-9) in
        (* index build straight off the packed arrays (no re-interning) *)
        let ((_ : Rix.t), rix_secs) =
          time (fun () -> Rix.build (Database.relation stream_sc.Scenario.db "T"))
        in
        (* interner throughput: 3 data cells per T row, 1 per MEnt row *)
        let cells = (3 * tuples) + (rows - tuples) in
        let intern_cps = float_of_int cells /. (stream_secs +. 1e-9) in
        (* slurp baseline + live differential *)
        let src = read_file path in
        let (slurp_sc, slurp_secs) = time (fun () -> Scenario.parse_slurp src) in
        let slurp_sps = float_of_int rows /. (slurp_secs +. 1e-9) in
        if
          not
            (Database.equal stream_sc.Scenario.db slurp_sc.Scenario.db
            && Database.equal stream_sc.Scenario.master slurp_sc.Scenario.master)
        then begin
          Printf.printf
            "  DIVERGENCE at %d tuples: streaming and slurp databases differ\n"
            tuples;
          exit 1
        end;
        (try Sys.remove path with Sys_error _ -> ());
        let speedup = stream_sps /. (slurp_sps +. 1e-9) in
        Printf.printf
          "  %8d tuples : stream %9.0f t/s  slurp %9.0f t/s  (%4.1fx)  rix \
           %6.1f ms  growths %d  VmHWM %d kB\n"
          tuples stream_sps slurp_sps speedup (1e3 *. rix_secs) growths vmhwm;
        if is_top then headline := (stream_sps, slurp_sps, vmhwm);
        Json.Obj
          [
            ("tuples", Json.Int tuples);
            ("rows", Json.Int rows);
            ("stream_tuples_per_sec", Json.Int (int_of_float stream_sps));
            ("slurp_tuples_per_sec", Json.Int (int_of_float slurp_sps));
            ("speedup", Json.Str (Printf.sprintf "%.2f" speedup));
            ("intern_cells_per_sec", Json.Int (int_of_float intern_cps));
            ("rix_build_ms", Json.Int (int_of_float (1e3 *. rix_secs)));
            ("intern_growths", Json.Int growths);
            ("vmhwm_kb", Json.Int vmhwm);
            ("databases_equal", Json.Bool true);
          ])
      rungs
  in
  let (stream_sps, slurp_sps, vmhwm) = !headline in
  let speedup = stream_sps /. (slurp_sps +. 1e-9) in
  Printf.printf
    "  headline (%d tuples): stream %.0f t/s vs slurp %.0f t/s — %.1fx, peak \
     RSS %d kB\n"
    top stream_sps slurp_sps speedup vmhwm;
  let json =
    Json.Obj
      [
        ("bench", Json.Str "load");
        ("family", Json.Str "triple");
        ("seed", Json.Int seed);
        ("top_tuples", Json.Int top);
        ("rungs", Json.List rung_rows);
        ("stream_tuples_per_sec", Json.Int (int_of_float stream_sps));
        ("slurp_tuples_per_sec", Json.Int (int_of_float slurp_sps));
        ("speedup", Json.Str (Printf.sprintf "%.2f" speedup));
        ("vmhwm_kb", Json.Int vmhwm);
        ("intern_entries", Json.Int (Intern.size ()));
      ]
  in
  let out =
    Sys.getenv_opt "RIC_BENCH_LOAD_OUT"
    |> Option.value ~default:"BENCH_load.json"
  in
  let oc = open_out out in
  output_string oc (Json.to_string json);
  output_char oc '\n';
  close_out oc;
  Printf.printf "  wrote %s\n" out

(* ================================================================== *)
(* Instrumentation overhead                                            *)
(* ================================================================== *)

(* The observability layer's contract is zero cost when disabled:
   counters fold in per decide, spans are no-ops without a sink.  This
   section measures seq steps/s on the hostile instance with tracing
   off and with a live JSONL sink, reporting the overhead the check.sh
   bench guard keeps honest (EXPERIMENTS.md, instrumentation row). *)

let obs_bench () =
  hr "Instrumentation overhead (seq decide on scenarios/hard.ric)";
  let module Scenario = Ric_text.Scenario in
  let dir =
    if Sys.file_exists "scenarios" then "scenarios" else "../../../scenarios"
  in
  let step_cap =
    match Sys.getenv_opt "RIC_BENCH_STEPS" with
    | Some s -> (try int_of_string (String.trim s) with Failure _ -> 400_000)
    | None -> 400_000
  in
  let hard = Scenario.load (Filename.concat dir "hard.ric") in
  let qh =
    match Scenario.find_query hard "QH" with
    | Some q -> q
    | None -> failwith "hard.ric has no query QH"
  in
  let run () =
    let clock = Budget.create ~max_steps:step_cap () in
    let ((), secs) =
      time (fun () ->
          try
            ignore
              (Rcdp.decide ~clock ~schema:hard.Scenario.db_schema
                 ~master:hard.Scenario.master ~ccs:(Scenario.all_ccs hard)
                 ~db:hard.Scenario.db qh)
          with Budget.Exhausted _ -> ())
    in
    float_of_int (Budget.steps clock) /. (secs +. 1e-9)
  in
  ignore (run ()) (* warm-up *);
  let best f = List.fold_left (fun acc _ -> Float.max acc (f ())) 0. [ 1; 2; 3 ] in
  let off = best run in
  let trace_file = Filename.temp_file "ric_bench_obs" ".jsonl" in
  Ric_obs.Trace.open_file trace_file;
  let on = best run in
  Ric_obs.Trace.close ();
  let spans = Ric_text.Trace_summary.load trace_file in
  (try Sys.remove trace_file with Sys_error _ -> ());
  let overhead_pct = 100. *. (1. -. (on /. off)) in
  Printf.printf "  tracing off %10.0f steps/s\n" off;
  Printf.printf "  tracing on  %10.0f steps/s  (%d spans written)\n" on
    (List.length spans.Ric_text.Trace_summary.spans);
  Printf.printf "  overhead    %9.1f%%\n" overhead_pct

let () =
  let sections =
    [
      ("table1", table1);
      ("table2", table2);
      ("prop21", prop21);
      ("chars", chars);
      ("ablation", ablation);
      ("micro", micro);
      ("search", search_bench);
      ("match", match_bench);
      ("mine", mine_bench);
      ("load", load_bench);
      ("obs", obs_bench);
    ]
  in
  let requested = List.tl (Array.to_list Sys.argv) in
  let to_run =
    if requested = [] then sections
    else
      List.filter (fun (name, _) -> List.mem name requested) sections
  in
  if to_run = [] then begin
    Printf.printf "unknown section(s); available: %s\n"
      (String.concat " " (List.map fst sections));
    exit 1
  end;
  List.iter (fun (_, f) -> f ()) to_run;
  Printf.printf "\nAll requested sections completed.\n"

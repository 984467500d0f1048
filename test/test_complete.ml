(* Unit tests for the supporting machinery of the deciders: active
   domains, the shared valuation search, and the guidance layer. *)

open Ric_relational
open Ric_query
open Ric_constraints
open Ric_complete

let v = Term.var

let schema =
  Schema.make
    [
      Schema.relation "R"
        [ Schema.attribute "a"; Schema.attribute ~dom:Domain.boolean "b" ];
    ]

let master_schema = Schema.make [ Schema.relation "M" [ Schema.attribute "x" ] ]

(* ------------------------------------------------------------------ *)
(* Adom *)

let test_adom_parts () =
  let master = Database.of_list master_schema [ ("M", Relation.of_int_rows [ [ 7 ] ]) ] in
  let db = Database.of_list schema [ ("R", Relation.of_int_rows [ [ 3; 1 ] ]) ] in
  let adom =
    Adom.build ~db ~schemas:[ schema ] ~master ~cc_constants:[ Value.int 9 ]
      ~query_constants:[ Value.str "q" ] ~fresh_count:2 ()
  in
  let all = Adom.all adom in
  List.iter
    (fun c ->
      Alcotest.(check bool)
        (Format.asprintf "%a in adom" Value.pp c)
        true
        (List.exists (Value.equal c) all))
    [ Value.int 7; Value.int 3; Value.int 1; Value.int 9; Value.str "q"; Value.int 0 ];
  Alcotest.(check int) "two fresh values" 2 (List.length (Adom.fresh adom));
  (* fresh values collide with nothing *)
  List.iter
    (fun f ->
      Alcotest.(check bool) "fresh is fresh" false
        (List.exists (Value.equal f) (Adom.constants adom)))
    (Adom.fresh adom)

let test_adom_candidates () =
  let master = Database.empty master_schema in
  let adom =
    Adom.build ~schemas:[ schema ] ~master ~cc_constants:[] ~query_constants:[]
      ~fresh_count:3 ()
  in
  (* finite-domain variables range over exactly their domain *)
  Alcotest.(check int) "boolean candidates" 2
    (List.length (Adom.candidates adom Domain.boolean));
  (* infinite-domain variables see constants ∪ fresh *)
  Alcotest.(check int) "infinite candidates"
    (Adom.size adom)
    (List.length (Adom.candidates adom Domain.Infinite))

(* ------------------------------------------------------------------ *)
(* Valuation search *)

let empty_master = Database.empty master_schema

let test_search_enumerates () =
  let q = Cq.make ~head:[ v "x" ] [ Atom.make "R" [ v "x"; v "b" ] ] in
  let tab = Option.get (Tableau.of_cq schema q) in
  let adom =
    Adom.build ~schemas:[ schema ] ~master:empty_master ~cc_constants:[]
      ~query_constants:[] ~fresh_count:2 ()
  in
  let count = ref 0 in
  let (_ : bool) =
    Valuation_search.iter
      (Valuation_search.compile ~checker:(Checker.create ~master:empty_master []) ~adom tab)
      ~mode:`Delta_only
      (fun _ ->
        incr count;
        false)
  in
  (* x over (2 boolean-values-in-adom + 2 fresh) wait: x is infinite =
     |all|, b is boolean = 2 *)
  let expected = List.length (Adom.all adom) * 2 in
  Alcotest.(check int) "full product" expected !count

let test_search_neq_pruning () =
  let q =
    Cq.make ~neqs:[ (v "x", v "y") ] ~head:[ v "x" ]
      [ Atom.make "R" [ v "x"; v "b" ]; Atom.make "R" [ v "y"; v "b" ] ]
  in
  let tab = Option.get (Tableau.of_cq schema q) in
  let adom =
    Adom.build ~schemas:[ schema ] ~master:empty_master ~cc_constants:[]
      ~query_constants:[] ~fresh_count:2 ()
  in
  let bad = ref false in
  let (_ : bool) =
    Valuation_search.iter
      (Valuation_search.compile ~checker:(Checker.create ~master:empty_master []) ~adom tab)
      ~mode:`Delta_only
      (fun leaf ->
        (match Valuation_search.value leaf "x", Valuation_search.value leaf "y" with
         | Some a, Some b -> if Value.equal a b then bad := true
         | _ -> ());
        false)
  in
  Alcotest.(check bool) "no x = y valuation visited" false !bad

(* A CC forbidding R tuples whose a is the first fresh value.  Written
   as one atom it is a generator: the forbidden candidates are never
   drawn, so nothing is pruned.  Written as a join it is checked per
   step, and cuts them. *)
let test_search_cc_pruning () =
  let q = Cq.make ~head:[ v "x" ] [ Atom.make "R" [ v "x"; v "b" ] ] in
  let tab = Option.get (Tableau.of_cq schema q) in
  let adom =
    Adom.build ~schemas:[ schema ] ~master:empty_master ~cc_constants:[]
      ~query_constants:[] ~fresh_count:1 ()
  in
  let fresh = List.hd (Adom.fresh adom) in
  let forbidden = Atom.make "R" [ Term.const fresh; v "b" ] in
  let run atoms =
    let forbid =
      Containment.make ~name:"forbid" (Lang.Q_cq (Cq.make ~head:[ v "b" ] atoms))
        Projection.Empty
    in
    let pruned = ref 0 in
    let visited = ref 0 in
    let (_ : bool) =
      Valuation_search.iter
        ~on_prune:(fun () -> incr pruned)
        (Valuation_search.compile
           ~checker:(Checker.create ~master:empty_master [ forbid ])
           ~adom tab)
        ~mode:`Delta_only
        (fun leaf ->
          incr visited;
          Alcotest.(check bool) "forbidden value never reached" false
            (match Valuation_search.value leaf "x" with
             | Some c -> Value.equal c fresh
             | None -> false);
          false)
    in
    (!pruned, !visited)
  in
  (* x over the whole adom but the fresh value, b over {0, 1} *)
  let allowed = 2 * (Adom.size adom - 1) in
  let pruned, visited = run [ forbidden ] in
  Alcotest.(check int) "a generator prunes nothing" 0 pruned;
  Alcotest.(check int) "a generator yields every other candidate" allowed visited;
  let pruned, visited = run [ forbidden; Atom.make "R" [ v "y"; v "c" ] ] in
  Alcotest.(check int) "a join prunes the forbidden candidates" 2 pruned;
  Alcotest.(check int) "a join visits the others" allowed visited

(* ------------------------------------------------------------------ *)
(* Guidance *)

let m_master ids =
  Database.of_list master_schema
    [ ("M", Relation.of_tuples (List.map (fun i -> Tuple.of_ints [ i ]) ids)) ]

let bound_by_master =
  Containment.make ~name:"bound"
    (Lang.Q_cq (Cq.make ~head:[ v "x" ] [ Atom.make "R" [ v "x"; v "b" ] ]))
    (Projection.proj "M" [ 0 ])

let q_all = Cq.make ~head:[ v "x" ] [ Atom.make "R" [ v "x"; v "b" ] ]

let test_guidance_completable_multi_round () =
  (* two missing master rows: the audit loop needs several rounds *)
  let master = m_master [ 1; 2; 3 ] in
  let db = Database.of_list schema [ ("R", Relation.of_int_rows [ [ 1; 0 ] ]) ] in
  match
    Guidance.audit ~schema ~master ~ccs:[ bound_by_master ] ~db (Lang.Q_cq q_all)
  with
  | Guidance.Completable { additions; completed; rounds } ->
    Alcotest.(check bool) "at least two rounds or two tuples" true
      (rounds >= 1 && Database.total_tuples additions >= 2);
    Alcotest.(check bool) "completed verified" true
      (Rcdp.decide ~schema ~master ~ccs:[ bound_by_master ] ~db:completed (Lang.Q_cq q_all)
       = Rcdp.Complete);
    (* additions are disjoint from the original data *)
    Alcotest.(check bool) "additions disjoint" true
      (Relation.is_empty
         (Relation.inter (Database.relation additions "R") (Database.relation db "R")))
  | r -> Alcotest.failf "expected completable, got %a" Guidance.pp_audit r

let test_guidance_not_completable () =
  (* no constraint on R at all: q_all can never be complete *)
  let master = m_master [ 1 ] in
  let db = Database.empty schema in
  match Guidance.audit ~schema ~master ~ccs:[] ~db (Lang.Q_cq q_all) with
  | Guidance.Not_completable _ -> ()
  | r -> Alcotest.failf "expected not completable, got %a" Guidance.pp_audit r

let test_guidance_already_complete () =
  let master = m_master [ 1 ] in
  let db = Database.of_list schema [ ("R", Relation.of_int_rows [ [ 1; 0 ]; [ 1; 1 ] ]) ] in
  match Guidance.audit ~schema ~master ~ccs:[ bound_by_master ] ~db (Lang.Q_cq q_all) with
  | Guidance.Already_complete -> ()
  | r -> Alcotest.failf "expected already complete, got %a" Guidance.pp_audit r

(* ------------------------------------------------------------------ *)
(* Random-generator workloads drive the deciders end to end *)

let test_random_workload_roundtrip () =
  let cfg = { Random_gen.default with Random_gen.tuples = 6; domain = 4 } in
  let schema = Random_gen.schema cfg in
  let db = Random_gen.database cfg in
  let master = Random_gen.master_of cfg db in
  let inds = Random_gen.inds cfg in
  let ccs = List.map (Ind.to_cc schema) inds in
  Alcotest.(check bool) "generated instance is partially closed" true
    (Containment.holds_all ~db ~master ccs);
  let q = Random_gen.chain_query cfg ~length:2 in
  Alcotest.(check bool) "query evaluates" true
    (Relation.cardinal (Cq.eval db q) >= 0);
  (* both decider paths agree *)
  let generic = Rcdp.decide ~schema ~master ~ccs ~db (Lang.Q_cq q) in
  let fast = Rcdp.decide_ind ~schema ~master ~inds ~db (Lang.Q_cq q) in
  Alcotest.(check bool) "C2 = C3 on random workload" true
    ((generic = Rcdp.Complete) = (fast = Rcdp.Complete))

let () =
  Alcotest.run "complete-internals"
    [
      ( "adom",
        [
          Alcotest.test_case "parts" `Quick test_adom_parts;
          Alcotest.test_case "candidates" `Quick test_adom_candidates;
        ] );
      ( "valuation search",
        [
          Alcotest.test_case "enumerates the product" `Quick test_search_enumerates;
          Alcotest.test_case "inequality pruning" `Quick test_search_neq_pruning;
          Alcotest.test_case "constraint pruning" `Quick test_search_cc_pruning;
        ] );
      ( "guidance",
        [
          Alcotest.test_case "multi-round completion" `Quick test_guidance_completable_multi_round;
          Alcotest.test_case "not completable" `Quick test_guidance_not_completable;
          Alcotest.test_case "already complete" `Quick test_guidance_already_complete;
        ] );
      ( "random workloads",
        [ Alcotest.test_case "roundtrip" `Slow test_random_workload_roundtrip ] );
    ]

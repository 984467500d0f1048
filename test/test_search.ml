(* Tests for the valuation-search performance layer: Search_mode
   parsing, Budget fork_shared cap/cancel, the constraint checker's delta
   and full checks (differential against Containment.holds_all, prune
   attribution in declaration order, each CC watched once), seq/par
   verdict agreement on every scenario file, and the satellite
   regressions — duplicate-atom removal (remove one occurrence, not
   every physically-shared copy) and budget checks at search entry. *)

open Ric_relational
open Ric_query
open Ric_constraints
open Ric_complete
module Scenario = Ric_text.Scenario

let v = Term.var

(* ------------------------------------------------------------------ *)
(* Search_mode *)

let test_search_mode_strings () =
  let roundtrip m =
    Alcotest.(check bool)
      (Search_mode.to_string m ^ " round trips")
      true
      (Search_mode.of_string (Search_mode.to_string m) = Ok m)
  in
  List.iter roundtrip [ Search_mode.Seq; Search_mode.Par 2; Search_mode.Par 7 ];
  Alcotest.(check bool) "the retired inc mode parses as seq" true
    (Search_mode.of_string "inc" = Ok Search_mode.Seq);
  Alcotest.(check bool) "par defaults domains" true
    (Search_mode.of_string "par" = Ok (Search_mode.Par Search_mode.default_domains));
  List.iter
    (fun s ->
      match Search_mode.of_string s with
      | Ok _ -> Alcotest.failf "%S must be rejected" s
      | Error _ -> ())
    [ "warp"; "par:0"; "par:-1"; "par:x"; "" ]

(* ------------------------------------------------------------------ *)
(* Budget: shared-counter forks, cancel *)

let test_budget_fork_cancel () =
  let stop = Atomic.make false in
  let child =
    Budget.fork_shared ~shared:(Atomic.make 0) ~cancel:stop Budget.unlimited
  in
  Budget.check_now child;
  Atomic.set stop true;
  (match Budget.check_now child with
   | () -> Alcotest.fail "tripped stop flag must cancel the child"
   | exception Budget.Exhausted Budget.Cancelled -> ());
  (* the parent's own flags are inherited too *)
  let flagged = Budget.create ~cancel:(Atomic.make true) () in
  match Budget.check_now (Budget.fork_shared ~shared:(Atomic.make 0) flagged) with
  | () -> Alcotest.fail "parent cancel flag must propagate to forks"
  | exception Budget.Exhausted Budget.Cancelled -> ()

(* Shared-counter families: the cap binds the family total exactly,
   whichever child performs the tick — the par-mode fix for concurrent
   branches collectively overshooting [step_cap] between job-end
   merges. *)
let test_budget_fork_shared_cap () =
  let parent = Budget.create ~max_steps:100 () in
  for _ = 1 to 10 do
    Budget.tick parent
  done;
  let shared = Atomic.make 0 in
  let a = Budget.fork_shared ~shared parent in
  let b = Budget.fork_shared ~shared parent in
  (* alternate ticks: the 90th family tick must trip, not the 90th of
     either child *)
  (match
     for i = 1 to 200 do
       Budget.tick (if i land 1 = 0 then a else b)
     done
   with
   | () -> Alcotest.fail "shared family must stop at the parent's allowance"
   | exception Budget.Exhausted Budget.Step_limit -> ());
  Alcotest.(check int) "family total is exactly the allowance" 90
    (Atomic.get shared);
  Budget.add_steps parent (min (Atomic.get shared) (Budget.remaining parent));
  Alcotest.(check int) "fold lands exactly on the cap" 100 (Budget.steps parent);
  Alcotest.(check int) "nothing left to fold" 0 (Budget.remaining parent)

(* ------------------------------------------------------------------ *)
(* Satellite regression: duplicated physically-shared atoms.

   [remove_one] must drop exactly one occurrence of the chosen atom;
   the old [List.filter (fun x -> x != a)] dropped every shared copy,
   so a tableau listing the same atom value twice instantiated it only
   once.  The duplicate instantiation is deterministic (same variable),
   so the visible difference is the per-candidate step count. *)

let dup_schema = Schema.make [ Schema.relation "R" [ Schema.attribute "x" ] ]
let no_master = Database.empty (Schema.make [])

let tableau_of atoms =
  let q = Cq.make ~head:[ v "x" ] atoms in
  match Tableau.of_cq dup_schema q with
  | Some t -> t
  | None -> Alcotest.fail "tableau construction failed"

let adom_for tab =
  Adom.build ~master:no_master ~cc_constants:[] ~query_constants:[]
    ~fresh_count:(List.length (Tableau.vars tab)) ()

let steps_for atoms =
  let tab = tableau_of atoms in
  let budget = Budget.create ~max_steps:1_000_000 () in
  ignore
    (Valuation_search.iter_valid ~budget ~master:no_master ~ccs:[] ~mode:`Delta_only
       ~adom:(adom_for tab) tab (fun _ _ -> false));
  Budget.steps budget

let test_duplicate_shared_atoms () =
  let a = Atom.make "R" [ v "x" ] in
  let single = steps_for [ a ] in
  let dup = steps_for [ a; a ] (* the same physical atom, twice *) in
  Alcotest.(check bool)
    (Printf.sprintf "both copies are instantiated (%d > %d steps)" dup single)
    true (dup > single)

(* ------------------------------------------------------------------ *)
(* Satellite regression: budgets are checked at search entry, so a
   pre-tripped cancel flag (or an already-expired deadline, the
   [timeout_ms = 0] case) aborts before any work — not after the first
   256-step polling stride. *)

let tripped () = Budget.create ~cancel:(Atomic.make true) ()

let test_entry_check_iter_valid () =
  let tab = tableau_of [ Atom.make "R" [ v "x" ] ] in
  let visits = ref 0 in
  (match
     Valuation_search.iter_valid ~budget:(tripped ()) ~master:no_master ~ccs:[]
       ~mode:`Delta_only ~adom:(adom_for tab) tab
       (fun _ _ ->
         incr visits;
         false)
   with
   | (_ : bool) -> Alcotest.fail "pre-tripped cancel must abort the search"
   | exception Budget.Exhausted Budget.Cancelled -> ());
  Alcotest.(check int) "no valuation visited" 0 !visits

let test_entry_check_deciders () =
  let q = Lang.Q_cq (Cq.make ~head:[ v "x" ] [ Atom.make "R" [ v "x" ] ]) in
  let db = Database.empty dup_schema in
  let stats = ref { Rcdp.valuations_visited = 0; branches_pruned = 0 } in
  (match
     Rcdp.decide ~clock:(tripped ()) ~collect_stats:stats ~schema:dup_schema
       ~master:no_master ~ccs:[] ~db q
   with
   | (_ : Rcdp.verdict) -> Alcotest.fail "rcdp must abort on a tripped clock"
   | exception Budget.Exhausted Budget.Cancelled -> ());
  Alcotest.(check int) "rcdp visited nothing" 0 !stats.Rcdp.valuations_visited;
  (match Rcqp.decide ~clock:(tripped ()) ~schema:dup_schema ~master:no_master ~ccs:[] q with
   | (_ : Rcqp.verdict) -> Alcotest.fail "rcqp must abort on a tripped clock"
   | exception Budget.Exhausted Budget.Cancelled -> ());
  (* timeout_ms = 0: the deadline is already over at entry *)
  let expired = Budget.create ~deadline_after:(-1.0) () in
  match
    Rcdp.decide ~clock:expired ~schema:dup_schema ~master:no_master ~ccs:[] ~db q
  with
  | (_ : Rcdp.verdict) -> Alcotest.fail "rcdp must abort on an expired deadline"
  | exception Budget.Exhausted Budget.Deadline -> ()

(* ------------------------------------------------------------------ *)
(* Checker: both entry points differential against
   Containment.holds_all over random single-tuple growth chains.  The
   chain starts from the empty database (which satisfies every CC, the
   delta check's precondition) and only keeps tuples the full check
   accepts, mirroring the search. *)

let inc_schema =
  Schema.make
    [
      Schema.relation "R" [ Schema.attribute "a"; Schema.attribute "b" ];
      Schema.relation "S" [ Schema.attribute "a" ];
    ]

let inc_master =
  Database.of_list
    (Schema.make
       [
         Schema.relation "M" [ Schema.attribute "a"; Schema.attribute "b" ];
         Schema.relation "N" [ Schema.attribute "a" ];
       ])
    [
      ("M", Relation.of_str_rows [ [ "0"; "0" ]; [ "0"; "1" ]; [ "1"; "2" ]; [ "2"; "2" ] ]);
      ("N", Relation.of_str_rows [ [ "0" ]; [ "1" ] ]);
    ]

let inc_ccs =
  [
    (* plain bound: R ⊆ M *)
    Containment.make ~name:"rm"
      (Lang.Q_cq (Cq.make ~head:[ v "x"; v "y" ] [ Atom.make "R" [ v "x"; v "y" ] ]))
      (Projection.proj "M" [ 0; 1 ]);
    (* join through both relations: R(x,y), S(y) ⇒ y ∈ N *)
    Containment.make ~name:"join"
      (Lang.Q_cq
         (Cq.make ~head:[ v "y" ]
            [ Atom.make "R" [ v "x"; v "y" ]; Atom.make "S" [ v "y" ] ]))
      (Projection.proj "N" [ 0 ]);
    (* inequality + empty RHS: no R tuple may repeat S's value twice *)
    Containment.make ~name:"neq"
      (Lang.Q_cq
         (Cq.make
            ~neqs:[ (v "x", v "y") ]
            ~head:[ v "x" ]
            [ Atom.make "R" [ v "x"; v "x" ]; Atom.make "S" [ v "y" ] ]))
      Projection.Empty;
    (* constant selection: S("3") is forbidden *)
    Containment.make ~name:"const"
      (Lang.Q_cq (Cq.make ~head:[ v "x" ] [ Atom.make "S" [ v "x" ]; Atom.make "S" [ Term.str "3" ] ]))
      Projection.Empty;
    (* FD a -> b on R: its two atoms are the same probe up to renaming *)
    Containment.make ~name:"fd"
      (Lang.Q_cq
         (Cq.make
            ~neqs:[ (v "y", v "z") ]
            ~head:[ v "x"; v "y"; v "z" ]
            [ Atom.make "R" [ v "x"; v "y" ]; Atom.make "R" [ v "x"; v "z" ] ]))
      Projection.Empty;
    (* both ends of a symmetric pair must be in N: the two probes
       differ only in the head, so both are kept *)
    Containment.make ~name:"sym"
      (Lang.Q_cq
         (Cq.make ~head:[ v "x" ]
            [ Atom.make "R" [ v "x"; v "y" ]; Atom.make "R" [ v "y"; v "x" ] ]))
      (Projection.proj "N" [ 0 ]);
  ]

let incremental_agrees_prop adds =
  let chk = Checker.create ~master:inc_master inc_ccs in
  let empty = Database.empty inc_schema in
  if Checker.check chk ~base:empty ~delta:empty <> None then
    QCheck2.Test.fail_report "empty database must satisfy the test constraints";
  let db = ref empty in
  List.iter
    (fun (pick, a, b) ->
      let rel, tuple =
        if pick land 1 = 0 then
          ("R", Tuple.of_strs [ string_of_int a; string_of_int b ])
        else ("S", Tuple.of_strs [ string_of_int a ])
      in
      let grown = Database.add_tuple !db rel tuple in
      let fast =
        Checker.check_add chk ~base:!db
          ~delta:(Database.add_tuple empty rel tuple)
          ~rel ~tuple
        = None
      in
      let slow = Containment.holds_all ~db:grown ~master:inc_master inc_ccs in
      if fast <> slow then
        QCheck2.Test.fail_reportf "check_add %s%s: incremental %b vs full %b" rel
          (Format.asprintf "%a" Tuple.pp tuple) fast slow;
      if (Checker.check chk ~base:empty ~delta:grown = None) <> slow then
        QCheck2.Test.fail_reportf "full check diverges on %s%s" rel
          (Format.asprintf "%a" Tuple.pp tuple);
      (* keep only accepted tuples: the parent invariant of the next step *)
      if slow then db := grown)
    adds;
  true

let test_incremental_differential =
  QCheck2.Test.make ~name:"incremental check_add ≡ holds_all on growth chains"
    ~count:200
    QCheck2.Gen.(list_size (int_bound 12) (triple (int_bound 7) (int_bound 3) (int_bound 3)))
    incremental_agrees_prop

(* A violating tuple is attributed to the first CC it violates in
   declaration order, by either entry point: the delta check walks the
   CCs reading the grown relation in declaration order too. *)
let test_declaration_order_attribution () =
  let chk = Checker.create ~master:inc_master inc_ccs in
  let empty = Database.empty inc_schema in
  (* R(5, 5) escapes M (rm) and repeats a value next to S(0) (neq) *)
  let parent = Database.add_tuple empty "S" (Tuple.of_strs [ "0" ]) in
  let tuple = Tuple.of_strs [ "5"; "5" ] in
  let grown = Database.add_tuple parent "R" tuple in
  Alcotest.(check (option string)) "full check names rm first" (Some "rm")
    (Checker.check chk ~base:empty ~delta:grown);
  Alcotest.(check (option string)) "delta check names rm first" (Some "rm")
    (Checker.check_add chk ~base:parent
       ~delta:(Database.add_tuple empty "R" tuple)
       ~rel:"R" ~tuple)

(* A self-join FD is checked once per inserted tuple: one delta check,
   and one kernel join — its two atoms give probes that are the same up
   to renaming, so only one runs (one index lookup for the other
   atom). *)
let test_self_join_checked_once () =
  let fd =
    Containment.make ~name:"fd"
      (Lang.Q_cq
         (Cq.make
            ~neqs:[ (v "y", v "z") ]
            ~head:[ v "x" ]
            [ Atom.make "R" [ v "x"; v "y" ]; Atom.make "R" [ v "x"; v "z" ] ]))
      Projection.Empty
  in
  let chk = Checker.create ~master:inc_master [ fd ] in
  let counter = Ric_obs.Metrics.counter in
  let delta_checks = counter "ric_incremental_delta_checks_total" in
  let index_lookups () =
    Ric_obs.Metrics.counter_value (counter "ric_match_index_builds_total")
    + Ric_obs.Metrics.counter_value (counter "ric_match_index_reuses_total")
  in
  let empty = Database.empty inc_schema in
  let parent = Database.add_tuple empty "R" (Tuple.of_strs [ "0"; "0" ]) in
  let check tuple =
    let before = Ric_obs.Metrics.counter_value delta_checks in
    let lookups = index_lookups () in
    let r =
      Checker.check_add chk ~base:parent
        ~delta:(Database.add_tuple empty "R" tuple)
        ~rel:"R" ~tuple
    in
    Alcotest.(check int) "one delta check" 1
      (Ric_obs.Metrics.counter_value delta_checks - before);
    Alcotest.(check int) "one kernel join" 1 (index_lookups () - lookups);
    r
  in
  Alcotest.(check (option string)) "a second value for key 0 breaks the FD"
    (Some "fd") (check (Tuple.of_strs [ "0"; "1" ]));
  Alcotest.(check (option string)) "a new key keeps it" None
    (check (Tuple.of_strs [ "1"; "1" ]))

let scenarios_dir () =
  if Sys.file_exists "../../../scenarios" then "../../../scenarios" else "scenarios"

(* supply_chain.ric declares ApprovedSupplier and CataloguedPart before
   the OrderKey FD: the ActiveSuppliers search must charge its prunes to
   the CCs in that order, in every mode. *)
let test_supply_chain_attribution () =
  let s = Scenario.load (Filename.concat (scenarios_dir ()) "supply_chain.ric") in
  let q = Option.get (Scenario.find_query s "ActiveSuppliers") in
  let attribution search =
    let profile = Ric_obs.Profile.create () in
    (match
       Rcdp.decide ~search ~profile ~schema:s.Scenario.db_schema
         ~master:s.Scenario.master ~ccs:(Scenario.all_ccs s) ~db:s.Scenario.db q
     with
     | Rcdp.Complete -> ()
     | Rcdp.Incomplete _ -> Alcotest.fail "ActiveSuppliers must be complete");
    (Ric_obs.Profile.snapshot profile).Ric_obs.Profile.constraints
  in
  let seq = attribution Search_mode.Seq in
  let charged name = Option.value ~default:0 (List.assoc_opt name seq) in
  let fd_max =
    List.fold_left
      (fun m (name, k) ->
        if String.starts_with ~prefix:"OrderKey" name then max m k else m)
      0 seq
  in
  (* most candidate orders name an unapproved supplier, and those are
     charged to the first CC they break *)
  Alcotest.(check bool) "ApprovedSupplier is charged the most" true
    (charged "ApprovedSupplier" > charged "CataloguedPart");
  Alcotest.(check bool) "CataloguedPart is charged more than any FD CC" true
    (charged "CataloguedPart" > fd_max);
  Alcotest.(check bool) "par charges the same CCs" true
    (List.sort compare (attribution (Search_mode.Par 2)) = List.sort compare seq)

(* ------------------------------------------------------------------ *)
(* seq / par verdict agreement on every scenario file *)

let rcdp_label ~search (s : Scenario.t) q =
  let clock = Budget.create ~max_steps:60_000 () in
  match
    Rcdp.decide ~clock ~search ~schema:s.Scenario.db_schema ~master:s.Scenario.master
      ~ccs:(Scenario.all_ccs s) ~db:s.Scenario.db q
  with
  | Rcdp.Complete -> "complete"
  | Rcdp.Incomplete _ -> "incomplete"
  | exception Rcdp.Unsupported _ -> "unsupported"
  | exception Rcdp.Not_partially_closed _ -> "not_partially_closed"
  | exception Budget.Exhausted reason -> "timeout:" ^ Budget.reason_name reason

let test_modes_agree_on_scenarios () =
  let dir = scenarios_dir () in
  let files =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".ric")
    |> List.sort compare
  in
  Alcotest.(check bool) "found scenario files" true (files <> []);
  List.iter
    (fun file ->
      let s = Scenario.load (Filename.concat dir file) in
      List.iter
        (fun (qname, q) ->
          let seq = rcdp_label ~search:Search_mode.Seq s q in
          let par = rcdp_label ~search:(Search_mode.Par 4) s q in
          Alcotest.(check string) (Printf.sprintf "%s/%s par" file qname) seq par)
        s.Scenario.queries)
    files

(* Exactly-once fork accounting: a complete verdict explores the whole
   valuation space in every mode, and each child step must reach the
   parent clock exactly once — so the par totals equal the seq total
   (a double merge would inflate them, a lost child would deflate
   them), and the partition width must not change the sum. *)
let test_par_step_accounting () =
  let dir = scenarios_dir () in
  let s = Scenario.load (Filename.concat dir "crm.ric") in
  let q =
    match Scenario.find_query s "Q2" with
    | Some q -> q
    | None -> Alcotest.fail "crm.ric lost its Q2 query"
  in
  let steps_in ~search =
    let clock = Budget.create ~max_steps:1_000_000 () in
    (match
       Rcdp.decide ~clock ~search ~schema:s.Scenario.db_schema
         ~master:s.Scenario.master ~ccs:(Scenario.all_ccs s) ~db:s.Scenario.db q
     with
     | Rcdp.Complete -> ()
     | Rcdp.Incomplete _ -> Alcotest.fail "Q2 must be complete (full exploration)");
    Budget.steps clock
  in
  let seq = steps_in ~search:Search_mode.Seq in
  Alcotest.(check bool) "seq run ticked" true (seq > 0);
  List.iter
    (fun n ->
      Alcotest.(check int)
        (Printf.sprintf "par:%d step total equals seq" n)
        seq
        (steps_in ~search:(Search_mode.Par n)))
    [ 2; 3; 4 ]

(* the incomplete case: a parallel first witness must terminate the
   search with the same verdict class, and the counterexample must
   revalidate like any sequential one *)
let test_par_witness_is_valid () =
  let dir = scenarios_dir () in
  let s = Scenario.load (Filename.concat dir "crm.ric") in
  List.iter
    (fun (qname, q) ->
      match
        Rcdp.decide ~search:(Search_mode.Par 4) ~schema:s.Scenario.db_schema
          ~master:s.Scenario.master ~ccs:(Scenario.all_ccs s) ~db:s.Scenario.db q
      with
      | Rcdp.Complete -> ()
      | Rcdp.Incomplete cex ->
        let extended = Database.union s.Scenario.db cex.Rcdp.cex_extension in
        Alcotest.(check bool)
          (qname ^ ": extension is admissible")
          true
          (Containment.holds_all ~db:extended ~master:s.Scenario.master
             (Scenario.all_ccs s));
        Alcotest.(check bool)
          (qname ^ ": answer is new")
          true
          (Relation.mem cex.Rcdp.cex_answer (Lang.eval extended q)
          && not (Relation.mem cex.Rcdp.cex_answer (Lang.eval s.Scenario.db q)))
      | exception Rcdp.Unsupported _ -> ())
    s.Scenario.queries

(* ------------------------------------------------------------------ *)
(* The work-stealing engine with real worker domains.  The default
   clamp would collapse to one worker on a small CI host, silently
   skipping every concurrency path — RIC_SEARCH_FORCE_WORKERS un-clamps
   it for the duration of a callback. *)

let with_forced_workers n f =
  Unix.putenv "RIC_SEARCH_FORCE_WORKERS" (string_of_int n);
  Fun.protect
    ~finally:(fun () -> Unix.putenv "RIC_SEARCH_FORCE_WORKERS" "")
    f

(* forced-domain variant of the exactly-once accounting test: the
   frontier tasks partition the sequential tree, so even with real
   concurrent workers the family's shared step total must equal the
   sequential total on a fully explored (Complete) instance *)
let test_par_step_accounting_forced () =
  let dir = scenarios_dir () in
  let s = Scenario.load (Filename.concat dir "crm.ric") in
  let q =
    match Scenario.find_query s "Q2" with
    | Some q -> q
    | None -> Alcotest.fail "crm.ric lost its Q2 query"
  in
  let steps_in ~search =
    let clock = Budget.create ~max_steps:1_000_000 () in
    (match
       Rcdp.decide ~clock ~search ~schema:s.Scenario.db_schema
         ~master:s.Scenario.master ~ccs:(Scenario.all_ccs s) ~db:s.Scenario.db q
     with
     | Rcdp.Complete -> ()
     | Rcdp.Incomplete _ -> Alcotest.fail "Q2 must be complete (full exploration)");
    Budget.steps clock
  in
  let seq = steps_in ~search:Search_mode.Seq in
  List.iter
    (fun n ->
      with_forced_workers n (fun () ->
        Alcotest.(check int)
          (Printf.sprintf "forced par:%d step total equals seq" n)
          seq
          (steps_in ~search:(Search_mode.Par n))))
    [ 2; 3 ]

(* a degenerate instance — every variable has a single candidate — has
   no level to split on; par must degrade to the sequential engine
   (same result, no stealing, no hang) even with forced workers *)
let test_par_degenerate_falls_back () =
  let m_steals =
    Ric_obs.Metrics.counter
      ~help:"frontier tasks popped by a worker other than their producer"
      "ric_search_steal_total"
  in
  let tab = tableau_of [ Atom.make "R" [ v "x" ] ] in
  let adom =
    Adom.build ~master:no_master ~cc_constants:[] ~query_constants:[]
      ~fresh_count:1 ()
  in
  with_forced_workers 4 (fun () ->
    let steals0 = Ric_obs.Metrics.counter_value m_steals in
    let seq_visits = ref 0 in
    ignore
      (Valuation_search.iter_valid ~master:no_master ~ccs:[] ~mode:`Delta_only
         ~adom tab (fun _ _ ->
           incr seq_visits;
           false));
    let par_visits = ref 0 in
    ignore
      (Valuation_search.iter_valid_par ~domains:4 ~master:no_master ~ccs:[]
         ~mode:`Delta_only ~adom tab (fun _ _ ->
           incr par_visits;
           false));
    Alcotest.(check int) "same visits as seq" !seq_visits !par_visits;
    Alcotest.(check int) "no candidate to split: zero steals" steals0
      (Ric_obs.Metrics.counter_value m_steals))

(* ------------------------------------------------------------------ *)
(* QCheck differential: random instances × forced par:1..8 vs seq.

   The parallel tree is node-for-node the sequential tree, so on an
   uncapped run the verdicts must be identical.  Under a tiny step cap
   the *exploration order* differs, so a run that times out under seq
   may legitimately find a witness under par (and vice versa) — but
   completes must still coincide, a timeout may never be reported with
   more steps than the cap, and an impossible pairing (one side fully
   explores and reports complete, the other claims a witness) is a
   bug. *)

let random_instance seed =
  let open Ric_workloads in
  let cfg =
    { Random_gen.seed; relations = 2; arity = 2; tuples = 3; domain = 3 }
  in
  let schema = Random_gen.schema cfg in
  let db = Random_gen.database cfg in
  let master = Random_gen.master_of cfg db in
  let ccs = List.map (Ind.to_cc schema) (Random_gen.inds cfg) in
  (cfg, schema, db, master, ccs)

let decide_steps ~cap ~search ~workers (schema, db, master, ccs, q) =
  with_forced_workers workers (fun () ->
    let clock = Budget.create ~max_steps:cap () in
    let label =
      match Rcdp.decide ~clock ~search ~schema ~master ~ccs ~db q with
      | Rcdp.Complete -> "complete"
      | Rcdp.Incomplete _ -> "incomplete"
      | exception Rcdp.Unsupported _ -> "unsupported"
      | exception Rcdp.Not_partially_closed _ -> "not_partially_closed"
      | exception Budget.Exhausted reason -> "timeout:" ^ Budget.reason_name reason
    in
    (label, Budget.steps clock))

let par_matches_seq_prop (seed, atoms, wsel, tight) =
  let open Ric_workloads in
  let (cfg, schema, db, master, ccs) = random_instance seed in
  let q = Lang.Q_cq (Random_gen.random_cq cfg ~atoms:(1 + (atoms mod 3))) in
  let inst = (schema, db, master, ccs, q) in
  let workers = 1 + (wsel mod 8) in
  let cap = if tight then 400 else 300_000 in
  let (seq_label, seq_steps) =
    decide_steps ~cap ~search:Search_mode.Seq ~workers:1 inst
  in
  let (par_label, par_steps) =
    decide_steps ~cap ~search:(Search_mode.Par workers) ~workers inst
  in
  if seq_steps > cap then
    QCheck2.Test.fail_reportf "seq reported %d steps over cap %d" seq_steps cap;
  if par_steps > cap then
    QCheck2.Test.fail_reportf "par:%d reported %d steps over cap %d" workers
      par_steps cap;
  let timeout l = String.length l >= 7 && String.sub l 0 7 = "timeout" in
  let compatible =
    seq_label = par_label
    || (timeout seq_label && par_label = "incomplete")
    || (timeout par_label && seq_label = "incomplete")
  in
  if not compatible then
    QCheck2.Test.fail_reportf "par:%d %s vs seq %s (cap %d)" workers par_label
      seq_label cap;
  (* with a generous cap the exploration completes and the order cannot
     matter: demand exact agreement *)
  if (not tight) && seq_label <> par_label then
    QCheck2.Test.fail_reportf "uncapped par:%d %s vs seq %s" workers par_label
      seq_label;
  true

let test_par_differential =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"random instances × forced par:1..8 ≡ seq"
       ~count:30
       QCheck2.Gen.(
         quad (int_bound 1000) (int_bound 2) (int_bound 7) bool)
       par_matches_seq_prop)

(* ------------------------------------------------------------------ *)
(* Crash injection: a worker crash mid-task is retried once (one
   injected crash must not change the verdict); a permanent crash
   surfaces as the injected error from the coordinator — a structured
   reply at the service layer — and never hangs. *)

exception Injected

let test_par_crash_paths () =
  let dir = scenarios_dir () in
  let s = Scenario.load (Filename.concat dir "crm.ric") in
  let q =
    match Scenario.find_query s "Q2" with
    | Some q -> q
    | None -> Alcotest.fail "crm.ric lost its Q2 query"
  in
  let decide ~search =
    Rcdp.decide ~search ~schema:s.Scenario.db_schema ~master:s.Scenario.master
      ~ccs:(Scenario.all_ccs s) ~db:s.Scenario.db q
  in
  let expected = decide ~search:Search_mode.Seq in
  with_forced_workers 2 (fun () ->
    Fun.protect
      ~finally:(fun () -> Valuation_search.set_fault_hook ignore)
      (fun () ->
        (* one crash, absorbed by the retry *)
        let armed = Atomic.make true in
        Valuation_search.set_fault_hook (fun () ->
          if Atomic.exchange armed false then raise Injected);
        Alcotest.(check bool) "one crash leaves the verdict intact" true
          (decide ~search:(Search_mode.Par 2) = expected);
        Alcotest.(check bool) "the crash really fired" false (Atomic.get armed);
        (* permanent crash: the retry fails too, the error propagates *)
        Valuation_search.set_fault_hook (fun () -> raise Injected);
        match decide ~search:(Search_mode.Par 2) with
        | (_ : Rcdp.verdict) ->
          Alcotest.fail "permanent crash must not produce a verdict"
        | exception Injected -> ()))

let () =
  Alcotest.run "search"
    [
      ( "search mode",
        [ Alcotest.test_case "parse / print" `Quick test_search_mode_strings ] );
      ( "budget",
        [
          Alcotest.test_case "fork cancel flags" `Quick test_budget_fork_cancel;
          Alcotest.test_case "shared family cap is exact" `Quick test_budget_fork_shared_cap;
        ] );
      ( "regressions",
        [
          Alcotest.test_case "duplicate shared atoms" `Quick test_duplicate_shared_atoms;
          Alcotest.test_case "entry check: iter_valid" `Quick test_entry_check_iter_valid;
          Alcotest.test_case "entry check: deciders" `Quick test_entry_check_deciders;
        ] );
      ( "incremental",
        [
          QCheck_alcotest.to_alcotest test_incremental_differential;
          Alcotest.test_case "declaration-order attribution" `Quick
            test_declaration_order_attribution;
          Alcotest.test_case "self-join CC checked once" `Quick
            test_self_join_checked_once;
          Alcotest.test_case "supply_chain prune attribution" `Quick
            test_supply_chain_attribution;
        ] );
      ( "mode agreement",
        [
          Alcotest.test_case "all scenarios, all modes" `Quick test_modes_agree_on_scenarios;
          Alcotest.test_case "par step totals equal seq" `Quick test_par_step_accounting;
          Alcotest.test_case "par witness revalidates" `Quick test_par_witness_is_valid;
        ] );
      ( "work stealing",
        [
          Alcotest.test_case "forced domains keep step parity" `Quick
            test_par_step_accounting_forced;
          Alcotest.test_case "degenerate split falls back to seq" `Quick
            test_par_degenerate_falls_back;
          test_par_differential;
          Alcotest.test_case "crash retry and permanent crash" `Quick
            test_par_crash_paths;
        ] );
    ]

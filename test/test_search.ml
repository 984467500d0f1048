(* Tests for the valuation-search performance layer: Search_mode
   parsing, Budget fork_shared cap/cancel and deadlines, the constraint
   checker's delta and full checks (differential against
   Containment.holds_all, prune attribution in declaration order, each
   CC watched once), candidate generation from the generator CCs
   (differential against the filtered product), seq/par
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

(* A deadline budget trips once its duration has passed on the
   monotonic clock, and never before: every poll that starts after the
   deadline raises, and the one that raises ends after it. *)
let test_budget_deadline () =
  let d = 0.05 in
  let now = Ric_obs.Metrics.now_s in
  let before = now () in
  let b = Budget.create ~deadline_after:d () in
  let after = now () in
  let rec poll () =
    let t = now () in
    match Budget.check_now b with
    | () ->
      if t > after +. d then
        Alcotest.failf "still running %.3f s into a %.3f s deadline" (t -. before) d;
      Unix.sleepf 0.002;
      poll ()
    | exception Budget.Exhausted Budget.Deadline ->
      let t' = now () in
      if t' < before +. d then
        Alcotest.failf "tripped %.3f s into a %.3f s deadline" (t' -. before) d
  in
  poll ()

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

(* ------------------------------------------------------------------ *)
(* Candidate generation: [Checker.generate] yields exactly the product
   candidates that every generator CC accepts, in product order, for
   random atoms (constants, repeated variables, variables bound on
   entry) over random candidate lists, against random generator CCs
   (every shape: plain, constant and repeated-variable selections,
   partial projections, a constant head column, an empty RHS) declared
   in random order.  The oracle is the full check of the singleton
   tuple against the generators alone. *)

let gen_schema =
  Schema.make
    [ Schema.relation "R" [ Schema.attribute "a"; Schema.attribute "b"; Schema.attribute "c" ] ]

let gen_master_schema =
  Schema.make
    [
      Schema.relation "M1" [ Schema.attribute "x" ];
      Schema.relation "M2" [ Schema.attribute "x"; Schema.attribute "y" ];
      Schema.relation "M3" [ Schema.attribute "x"; Schema.attribute "y"; Schema.attribute "z" ];
    ]

let generator_ccs =
  let r a b c = Atom.make "R" [ a; b; c ] in
  let k i = Term.const (Value.Str (string_of_int i)) in
  let cc name head atom rhs = Containment.make ~name (Lang.Q_cq (Cq.make ~head [ atom ])) rhs in
  [
    cc "plain" [ v "x"; v "y"; v "z" ] (r (v "x") (v "y") (v "z")) (Projection.proj "M3" [ 0; 1; 2 ]);
    cc "constant" [ v "y"; v "z" ] (r (k 1) (v "y") (v "z")) (Projection.proj "M2" [ 0; 1 ]);
    cc "repeated" [ v "z" ] (r (v "x") (v "x") (v "z")) (Projection.proj "M1" [ 0 ]);
    cc "partial" [ v "y" ] (r (v "x") (v "y") (v "z")) (Projection.proj "M3" [ 2 ]);
    cc "swapped" [ v "z"; v "x" ] (r (v "x") (v "y") (v "z")) (Projection.proj "M2" [ 0; 1 ]);
    cc "headconst" [ v "x"; k 2 ] (r (v "x") (v "y") (v "z")) (Projection.proj "M2" [ 1; 0 ]);
    cc "empty" [ v "x" ] (r (v "x") (k 2) (v "z")) Projection.Empty;
  ]

let prop_generate =
  QCheck2.Test.make ~name:"generate ≡ product filtered by the generator CCs" ~count:500
    QCheck2.Gen.(
      let term = oneof [ map (fun i -> `Const i) (int_bound 3); map (fun i -> `Var i) (int_bound 2) ] in
      let rows n = list_size (int_bound 6) (list_repeat n (int_bound 3)) in
      tup6 (triple term term term) (int_bound 127) int
        (triple (rows 1) (rows 2) (rows 3))
        (list_repeat 3 (pair (int_bound 7) (list_size (int_bound 5) (int_bound 4))))
        (list_repeat 3 (int_bound 4)))
    (fun ((t1, t2, t3), cc_bits, order, (m1, m2, m3), doms, outer_vals) ->
      let str i = Value.Str (string_of_int i) in
      let term = function `Const i -> Term.const (str i) | `Var i -> v (Printf.sprintf "u%d" i) in
      let atom = Atom.make "R" [ term t1; term t2; term t3 ] in
      let rel rows = Relation.of_tuples (List.map (fun r -> Tuple.make (List.map str r)) rows) in
      let master =
        Database.of_list gen_master_schema [ ("M1", rel m1); ("M2", rel m2); ("M3", rel m3) ]
      in
      let st = Random.State.make [| order |] in
      let gens =
        List.filteri (fun i _ -> cc_bits land (1 lsl i) <> 0) generator_ccs
        |> List.map (fun cc -> (Random.State.bits st, cc))
        |> List.sort compare |> List.map snd
      in
      (* each atom variable is enumerated, over a list in random order
         (4 stands for a value no master holds), or bound on entry *)
      let slot x = Char.code x.[1] - Char.code '0' (* "u<i>" *) in
      let enumerated, bound =
        List.partition (fun x -> fst (List.nth doms (slot x)) land 1 = 0) (Atom.vars atom)
      in
      let doms =
        List.map
          (fun x ->
            let is = List.sort_uniq compare (snd (List.nth doms (slot x))) in
            (x, List.map str (if order land 2 = 0 then is else List.rev is)))
          enumerated
      in
      let mu =
        Valuation.of_list (List.map (fun x -> (x, str (List.nth outer_vals (slot x)))) bound)
      in
      let chk = Checker.create ~master gens in
      let empty = Database.empty gen_schema in
      let accepted mu' =
        match Valuation.tuple_of_terms mu' atom.Atom.args with
        | None -> QCheck2.Test.fail_report "unbound atom variable"
        | Some tuple -> Checker.check chk ~base:empty ~delta:(Database.add_tuple empty "R" tuple) = None
      in
      let expected = ref [] and generated = ref [] in
      let (_ : bool) =
        Valuation.enumerate_iter doms (fun partial ->
            let mu' =
              List.fold_left (fun m (x, c) -> Valuation.add x c m) mu (Valuation.bindings partial)
            in
            if accepted mu' then expected := mu' :: !expected;
            false)
      in
      let g = Checker.generator chk atom doms in
      let (_ : bool) =
        Checker.generate g mu (fun mu' ->
            generated := mu' :: !generated;
            false)
      in
      let show l = String.concat " " (List.map (Format.asprintf "%a" Valuation.pp) (List.rev l)) in
      if not (List.equal Valuation.equal !generated !expected) then
        QCheck2.Test.fail_reportf "%a: generated [%s], expected [%s]" Atom.pp atom (show !generated)
          (show !expected);
      (match (Checker.first_values g mu, doms) with
       | None, [] -> ()
       | Some (x, vs), (y, _) :: _ when String.equal x y ->
         let firsts =
           List.fold_left
             (fun acc m ->
               let c = Option.get (Valuation.find x m) in
               if List.exists (Value.equal c) acc then acc else acc @ [ c ])
             [] (List.rev !expected)
         in
         (* every candidate's first value is offered, in order *)
         if not (List.for_all (fun c -> List.exists (Value.equal c) vs) firsts) then
           QCheck2.Test.fail_report "first_values misses a candidate's value"
       | _ -> QCheck2.Test.fail_report "first_values names the wrong variable");
      true)

let scenarios_dir () =
  if Sys.file_exists "../../../scenarios" then "../../../scenarios" else "scenarios"

(* The explain profile of an exhaustive (Complete) RCDP decide:
   per-constraint prune charges and per-level (atom, source) rows. *)
let attribution ~search (s : Scenario.t) qname =
  let q = Option.get (Scenario.find_query s qname) in
  let profile = Ric_obs.Profile.create () in
  (match
     Rcdp.decide ~search ~profile ~schema:s.Scenario.db_schema
       ~master:s.Scenario.master ~ccs:(Scenario.all_ccs s) ~db:s.Scenario.db q
   with
   | Rcdp.Complete -> ()
   | Rcdp.Incomplete _ -> Alcotest.failf "%s must be complete" qname);
  let snap = Ric_obs.Profile.snapshot profile in
  ( snap.Ric_obs.Profile.constraints,
    List.map
      (fun r -> (r.Ric_obs.Profile.lv_name, r.Ric_obs.Profile.lv_source))
      snap.Ric_obs.Profile.levels )

(* supply_chain.ric declares ApprovedSupplier and CataloguedPart, two
   INDs on Order, before the OrderKey FD.  The INDs are generators: the
   ActiveSuppliers search draws its Order candidates from them, so they
   are charged nothing and are listed as the level's source, and the FD
   CCs checked per step are charged in declaration order — in every
   mode. *)
let test_supply_chain_attribution () =
  let s = Scenario.load (Filename.concat (scenarios_dir ()) "supply_chain.ric") in
  let seq, levels = attribution ~search:Search_mode.Seq s "ActiveSuppliers" in
  let charged name = Option.value ~default:0 (List.assoc_opt name seq) in
  Alcotest.(check int) "ApprovedSupplier is charged nothing" 0 (charged "ApprovedSupplier");
  Alcotest.(check int) "CataloguedPart is charged nothing" 0 (charged "CataloguedPart");
  Alcotest.(check (list (pair string string)))
    "both INDs are the Order level's source"
    [ ("Order", "ApprovedSupplier,CataloguedPart") ]
    levels;
  Alcotest.(check bool) "the first OrderKey CC is charged the most" true
    (charged "OrderKey_pair_col1" > charged "OrderKey_pair_col2"
     && charged "OrderKey_pair_col1" > charged "OrderKey_pair_col3");
  Alcotest.(check bool) "par charges the same CCs" true
    (attribution ~search:(Search_mode.Par 2) s "ActiveSuppliers" = (seq, levels))

(* Two FDs that both cut most of the same candidates: the IND on k
   draws every candidate with k = a, and R(a, w, z) breaks the FD on w
   whenever w <> 1 and the one on z whenever z <> 1.  A candidate
   breaking both is charged to whichever is declared first, so the
   first is charged the most in either order. *)
let test_fd_declaration_first () =
  let scenario fds =
    Scenario.parse
      (Printf.sprintf
         {|
  schema R(k, w, z).
  master M(k).
  rows M { (a) }.
  rows R { (a, 1, 1) }.
  constraint Keys(k) :- R(k, w, z) => M[0].
  %s
  query Q(k) :- R(k, w, z).
|}
         fds)
  in
  List.iter
    (fun (fds, first, second) ->
      let s = scenario fds in
      let seq, levels = attribution ~search:Search_mode.Seq s "Q" in
      let charged name = Option.value ~default:0 (List.assoc_opt name seq) in
      Alcotest.(check (list (pair string string))) "the IND is the source"
        [ ("R", "Keys") ] levels;
      Alcotest.(check int) "the IND is charged nothing" 0 (charged "Keys");
      Alcotest.(check bool)
        (Printf.sprintf "%s is charged more than %s" first second)
        true
        (charged first > charged second && charged second > 0);
      Alcotest.(check bool) "par charges the same CCs" true
        (attribution ~search:(Search_mode.Par 2) s "Q" = (seq, levels)))
    [
      ("fd W R: k -> w.\n  fd Z R: k -> z.", "W_pair_col1", "Z_pair_col2");
      ("fd Z R: k -> z.\n  fd W R: k -> w.", "Z_pair_col2", "W_pair_col1");
    ]

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
          Alcotest.test_case "deadline trips on time" `Quick test_budget_deadline;
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
          Alcotest.test_case "FD prunes charged declaration-first" `Quick
            test_fd_declaration_first;
          QCheck_alcotest.to_alcotest prop_generate;
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

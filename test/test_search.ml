(* Tests for the valuation-search layer: the spellings of the "search"
   field (every one accepted runs the sequential search), Budget
   deadlines, the constraint checker's delta and full checks
   (differential against Containment.holds_all, prune attribution in
   declaration order, each CC watched once), candidate generation from
   the generator CCs (differential against the filtered product),
   search-spelling agreement on every scenario file, and the satellite
   regressions — duplicate-atom removal (remove one occurrence, not
   every physically-shared copy) and budget checks at search entry. *)

open Ric_relational
open Ric_query
open Ric_constraints
open Ric_complete
module Scenario = Ric_text.Scenario

let v = Term.var

(* ------------------------------------------------------------------ *)
(* Search spellings: accepted for compatibility, always sequential *)

module Protocol = Ric_service.Protocol
module Service = Ric_service.Service
module Json = Ric_text.Json

let test_search_mode_strings () =
  List.iter
    (fun s ->
      Alcotest.(check bool) (s ^ " is accepted as spelled") true
        (Protocol.check_search s = Ok s))
    [ "seq"; "inc"; "par"; "par:1"; "par:3" ];
  List.iter
    (fun s ->
      match Protocol.check_search s with
      | Ok _ -> Alcotest.failf "%S must be rejected" s
      | Error _ -> ())
    [ "warp"; "par:0"; "par:-1"; "par:x"; "par:"; "seq:2"; "" ]

(* ------------------------------------------------------------------ *)
(* Budget *)

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
    (Valuation_search.iter ~budget
       (Valuation_search.compile ~checker:(Checker.create ~master:no_master []) ~adom:(adom_for tab)
          tab)
       ~mode:`Delta_only (fun _ -> false));
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
   spent step allowance (or an already-expired deadline, the
   [timeout_ms = 0] case) aborts before any work — not after the first
   256-step polling stride. *)

let tripped () = Budget.create ~max_steps:0 ()

let test_entry_check_search () =
  let tab = tableau_of [ Atom.make "R" [ v "x" ] ] in
  let visits = ref 0 in
  (match
     Valuation_search.iter ~budget:(tripped ())
       (Valuation_search.compile ~checker:(Checker.create ~master:no_master []) ~adom:(adom_for tab)
          tab)
       ~mode:`Delta_only
       (fun _ ->
         incr visits;
         false)
   with
   | (_ : bool) -> Alcotest.fail "a spent budget must abort the search"
   | exception Budget.Exhausted Budget.Step_limit -> ());
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
   | exception Budget.Exhausted Budget.Step_limit -> ());
  Alcotest.(check int) "rcdp visited nothing" 0 !stats.Rcdp.valuations_visited;
  (match Rcqp.decide ~clock:(tripped ()) ~schema:dup_schema ~master:no_master ~ccs:[] q with
   | (_ : Rcqp.verdict) -> Alcotest.fail "rcqp must abort on a tripped clock"
   | exception Budget.Exhausted Budget.Step_limit -> ());
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
      (* the register API: a slot per atom variable, the bound ones
         written on entry, each yielded candidate read back *)
      let vars = Atom.vars atom in
      let reg x =
        let rec go i = function
          | [] -> assert false
          | y :: rest -> if String.equal x y then i else go (i + 1) rest
        in
        go 0 vars
      in
      let regs = Array.make (List.length vars) (-1) in
      List.iter (fun (x, c) -> regs.(reg x) <- Intern.id c) (Valuation.bindings mu);
      let g = Checker.generator chk ~slot:reg atom doms in
      let (_ : bool) =
        Checker.generate g regs (fun () ->
            let mu' =
              List.fold_left
                (fun m x -> Valuation.add x (Intern.value regs.(reg x)) m)
                Valuation.empty vars
            in
            generated := mu' :: !generated;
            false)
      in
      let show l = String.concat " " (List.map (Format.asprintf "%a" Valuation.pp) (List.rev l)) in
      if not (List.equal Valuation.equal !generated !expected) then
        QCheck2.Test.fail_reportf "%a: generated [%s], expected [%s]" Atom.pp atom (show !generated)
          (show !expected);
      true)

(* ------------------------------------------------------------------ *)
(* The slot-addressed search against brute force.  Small random
   tableaux (repeated variables, constants, inequalities, a finite
   column) under random CCs — generators (plain, selecting by a
   constant or a repeated variable, an empty RHS), multi-atom ones (a
   join, a key with an inequality) and a datalog one — over a random
   base.  In both modes the visited leaves must be exactly the valid
   valuations [μ] with [holds_all (base ∪ μ(T))] ([μ(T)] alone in
   [`Delta_only]), each visited once, and each leaf's materialised
   extension must be [Tableau.instantiate]'s.  A base that satisfies
   the CCs is also searched in [`Closed_base] mode, which skips the
   root check.  One compiled search serves every mode. *)

let bf_schema =
  Schema.make
    [
      Schema.relation "R"
        [ Schema.attribute "a"; Schema.attribute ~dom:(Domain.finite [ Value.Int 0; Value.Int 1 ]) "b" ];
      Schema.relation "S" [ Schema.attribute "a" ];
    ]

let bf_master_schema =
  Schema.make
    [
      Schema.relation "M" [ Schema.attribute "x" ];
      Schema.relation "M2" [ Schema.attribute "x"; Schema.attribute "y" ];
    ]

let bf_ccs =
  let r a b = Atom.make "R" [ a; b ] and s a = Atom.make "S" [ a ] in
  let k i = Term.const (Value.Int i) in
  let cc name ?(neqs = []) head atoms rhs =
    Containment.make ~name (Lang.Q_cq (Cq.make ~neqs ~head atoms)) rhs
  in
  [
    cc "ind_r" [ v "u"; v "w" ] [ r (v "u") (v "w") ] (Projection.proj "M2" [ 0; 1 ]);
    cc "ind_s" [ v "u" ] [ s (v "u") ] (Projection.proj "M" [ 0 ]);
    cc "select" [ v "u" ] [ r (v "u") (k 1) ] (Projection.proj "M" [ 0 ]);
    cc "repeated" [ v "u" ] [ r (v "u") (v "u") ] (Projection.proj "M" [ 0 ]);
    cc "forbid" [] [ s (k 2) ] Projection.Empty;
    cc "join" [ v "w" ] [ r (v "u") (v "w"); s (v "u") ] (Projection.proj "M" [ 0 ]);
    cc "key" ~neqs:[ (v "w1", v "w2") ] [ v "u" ]
      [ r (v "u") (v "w1"); r (v "u") (v "w2") ]
      Projection.Empty;
    cc "chain" [ v "u" ] [ s (v "u"); s (v "w"); r (v "u") (v "w") ] (Projection.proj "M" [ 0 ]);
    (* a datalog LHS has no UCQ form: checked by evaluating base ∪ μ(T) *)
    Containment.make ~name:"fp"
      (Lang.Q_fp
         (Datalog.program
            [ Datalog.rule (Atom.make "Ans" [ v "u" ]) [ Datalog.Pos (r (v "u") (v "w")); Datalog.Pos (s (v "w")) ] ]
            ~output:"Ans"))
      (Projection.proj "M" [ 0 ]);
  ]

let bf_instance seed =
  let st = Random.State.make [| seed |] in
  let pick l = List.nth l (Random.State.int st (List.length l)) in
  let int n = Random.State.int st n in
  let value () = Value.Int (int 3) in
  let term () =
    if int 4 = 0 then Term.const (value ()) else v (pick [ "x"; "y"; "z" ])
  in
  (* R's second column is finite, {0, 1}: constants there stay in it *)
  let term_b () = if int 4 = 0 then Term.const (Value.Int (int 2)) else v (pick [ "x"; "y"; "z" ]) in
  let atom () =
    if int 2 = 0 then Atom.make "R" [ term (); term_b () ] else Atom.make "S" [ term () ]
  in
  let atoms = List.init (1 + int 3) (fun _ -> atom ()) in
  let avars = List.concat_map Atom.vars atoms |> List.sort_uniq String.compare in
  let side () =
    if avars = [] || int 4 = 0 then Term.const (value ()) else v (pick avars)
  in
  let neqs = List.init (int 3) (fun _ -> (side (), side ())) in
  let head = List.filteri (fun i _ -> i < 1 + int 2) (List.map v avars) in
  let q = Cq.make ~neqs ~head atoms in
  let rows n f = List.init n (fun _ -> f ()) |> List.sort_uniq Tuple.compare in
  let rel n f = Relation.of_tuples (rows n f) in
  let master =
    Database.of_list bf_master_schema
      [
        ("M", rel (1 + int 3) (fun () -> Tuple.make [ value () ]));
        ("M2", rel (1 + int 5) (fun () -> Tuple.make [ value (); Value.Int (int 2) ]));
      ]
  in
  let ccs = List.filter (fun _ -> int 3 = 0) bf_ccs in
  let base =
    Database.of_list bf_schema
      [
        ("R", rel (int 3) (fun () -> Tuple.make [ value (); Value.Int (int 2) ]));
        ("S", rel (int 3) (fun () -> Tuple.make [ value () ]));
      ]
  in
  (q, master, ccs, base)

let prop_search_brute_force =
  QCheck2.Test.make ~name:"slot-addressed search ≡ brute force over valid valuations" ~count:400
    ~print:string_of_int QCheck2.Gen.int
    (fun seed ->
      let q, master, ccs, base = bf_instance seed in
      match Tableau.of_cq bf_schema q with
      | None -> true
      | Some tab ->
        let adom =
          Adom.build ~db:base ~schemas:[ bf_schema ] ~master
            ~cc_constants:(List.concat_map Containment.constants ccs)
            ~query_constants:(Cq.constants q) ~fresh_count:2 ()
        in
        let search = Valuation_search.compile ~checker:(Checker.create ~master ccs) ~adom tab in
        let key mu = Valuation.bindings mu in
        let check mode =
          let root =
            match mode with
            | `Against_base db | `Closed_base db -> db
            | `Delta_only -> Database.empty bf_schema
          in
          let doms = Tableau.var_domains tab in
          let cands =
            List.map
              (fun x ->
                (x, Adom.candidates adom (Option.value ~default:Domain.infinite (List.assoc_opt x doms))))
              (Tableau.vars tab)
          in
          let expected = ref [] in
          let (_ : bool) =
            Valuation.enumerate_iter cands (fun mu ->
                if
                  Tableau.neqs_ok tab mu
                  && Containment.holds_all
                       ~db:(Database.union root (Tableau.instantiate tab mu))
                       ~master ccs
                then expected := key mu :: !expected;
                false)
          in
          let visited = ref [] in
          let (_ : bool) =
            Valuation_search.iter search ~mode (fun leaf ->
                let mu = Valuation_search.valuation leaf in
                if not (Database.equal (Valuation_search.extension leaf) (Tableau.instantiate tab mu))
                then QCheck2.Test.fail_reportf "extension differs from instantiate at %a" Valuation.pp mu;
                List.iter
                  (fun x ->
                    if Valuation_search.value leaf x <> Valuation.find x mu then
                      QCheck2.Test.fail_reportf "value %s differs from the valuation" x)
                  (Tableau.vars tab);
                visited := key mu :: !visited;
                false)
          in
          let sort = List.sort compare in
          let show l =
            String.concat "; "
              (List.map
                 (fun b ->
                   String.concat ","
                     (List.map (fun (x, c) -> x ^ "=" ^ Value.to_string c) b))
                 l)
          in
          if List.length (List.sort_uniq compare !visited) <> List.length !visited then
            QCheck2.Test.fail_reportf "a valuation was visited twice: [%s]" (show (sort !visited));
          if sort !visited <> sort !expected then
            QCheck2.Test.fail_reportf "%a: visited [%s], expected [%s]" Tableau.pp tab
              (show (sort !visited)) (show (sort !expected))
        in
        check `Delta_only;
        check (`Against_base base);
        (* a closed base skips the root check and must find the same *)
        if Containment.holds_all ~db:base ~master ccs then check (`Closed_base base);
        true)

let scenarios_dir () =
  if Sys.file_exists "../../../scenarios" then "../../../scenarios" else "scenarios"

(* The explain profile of an exhaustive (Complete) RCDP decide:
   per-constraint prune charges and per-level (atom, source) rows. *)
let attribution (s : Scenario.t) qname =
  let q = Option.get (Scenario.find_query s qname) in
  let profile = Ric_obs.Profile.create () in
  (match
     Rcdp.decide ~profile ~schema:s.Scenario.db_schema
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
   CCs checked per step are charged in declaration order. *)
let test_supply_chain_attribution () =
  let s = Scenario.load (Filename.concat (scenarios_dir ()) "supply_chain.ric") in
  let seq, levels = attribution s "ActiveSuppliers" in
  let charged name = Option.value ~default:0 (List.assoc_opt name seq) in
  Alcotest.(check int) "ApprovedSupplier is charged nothing" 0 (charged "ApprovedSupplier");
  Alcotest.(check int) "CataloguedPart is charged nothing" 0 (charged "CataloguedPart");
  Alcotest.(check (list (pair string string)))
    "both INDs are the Order level's source"
    [ ("Order", "ApprovedSupplier,CataloguedPart") ]
    levels;
  Alcotest.(check bool) "the first OrderKey CC is charged the most" true
    (charged "OrderKey_pair_col1" > charged "OrderKey_pair_col2"
     && charged "OrderKey_pair_col1" > charged "OrderKey_pair_col3")

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
      let seq, levels = attribution s "Q" in
      let charged name = Option.value ~default:0 (List.assoc_opt name seq) in
      Alcotest.(check (list (pair string string))) "the IND is the source"
        [ ("R", "Keys") ] levels;
      Alcotest.(check int) "the IND is charged nothing" 0 (charged "Keys");
      Alcotest.(check bool)
        (Printf.sprintf "%s is charged more than %s" first second)
        true
        (charged first > charged second && charged second > 0))
    [
      ("fd W R: k -> w.\n  fd Z R: k -> z.", "W_pair_col1", "Z_pair_col2");
      ("fd Z R: k -> z.\n  fd W R: k -> w.", "Z_pair_col2", "W_pair_col1");
    ]

(* ------------------------------------------------------------------ *)
(* Every spelling of the "search" field gets the sequential reply *)

(* A fresh (nocache) rcdp reply to [query] on [session], spelled
   [search], less what differs between any two runs: [elapsed_us],
   and a timeout's work-done counters (its deadline is wall time). *)
let rcdp_reply ?(timeout_ms = 200) ?(explain = false) svc ~search session query =
  let req =
    Protocol.Rcdp
      {
        session;
        query;
        nocache = true;
        timeout_ms = Some timeout_ms;
        search;
        req_id = None;
        explain;
      }
  in
  let timeout r = List.assoc_opt "verdict" r = Some (Json.Str "timeout") in
  let verdict_and_reason = List.filter (fun (k, _) -> k = "verdict" || k = "reason") in
  match Service.handle svc req with
  | Json.Obj fields ->
    Json.to_string
      (Json.Obj
         (List.filter_map
            (fun (k, v) ->
              match (k, v) with
              | "elapsed_us", _ -> None
              | "result", Json.Obj r when timeout r -> Some (k, Json.Obj (verdict_and_reason r))
              | _ -> Some (k, v))
            fields))
  | j -> Alcotest.failf "rcdp reply is not an object: %s" (Json.to_string j)

let spellings = [ Some "seq"; Some "inc"; Some "par"; Some "par:4" ]

let open_scenario svc file =
  match
    Service.handle svc (Protocol.Open { path = Some file; source = None; name = None })
  with
  | Json.Obj fields -> (
    match List.assoc_opt "session" fields with
    | Some (Json.Str id) -> id
    | _ -> Alcotest.failf "open %s failed" file)
  | _ -> Alcotest.failf "open %s failed" file

let test_modes_agree_on_scenarios () =
  let dir = scenarios_dir () in
  let files =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".ric")
    |> List.sort compare
  in
  Alcotest.(check bool) "found scenario files" true (files <> []);
  let svc = Service.create ~root:dir () in
  List.iter
    (fun file ->
      let s = Scenario.load (Filename.concat dir file) in
      let session = open_scenario svc file in
      List.iter
        (fun (qname, _) ->
          let seq = rcdp_reply svc ~search:None session qname in
          List.iter
            (fun search ->
              Alcotest.(check string)
                (Printf.sprintf "%s/%s spelled %s" file qname (Option.get search))
                seq
                (rcdp_reply svc ~search session qname))
            spellings)
        s.Scenario.queries)
    files

(* A complete verdict explores the whole valuation space: a request
   spelled par:N must take exactly the steps the sequential one does
   (the explain profile's step total). *)
let test_par_step_accounting () =
  let dir = scenarios_dir () in
  let svc = Service.create ~root:dir () in
  let session = open_scenario svc "crm.ric" in
  let steps search =
    match
      Json.of_string
        (rcdp_reply ~timeout_ms:60_000 ~explain:true svc ~search session "Q2")
    with
    | Json.Obj fields -> (
      match List.assoc_opt "result" fields, List.assoc_opt "profile" fields with
      | Some (Json.Obj r), Some (Json.Obj p) ->
        Alcotest.(check bool) "Q2 is complete (full exploration)" true
          (List.assoc_opt "verdict" r = Some (Json.Str "complete"));
        (match List.assoc_opt "steps" p with
         | Some (Json.Int n) -> n
         | _ -> Alcotest.fail "profile carries no steps")
      | _ -> Alcotest.fail "explain reply carries no result or profile")
    | _ -> Alcotest.fail "reply is not an object"
  in
  let seq = steps (Some "seq") in
  Alcotest.(check bool) "seq run ticked" true (seq > 0);
  List.iter
    (fun n ->
      Alcotest.(check int)
        (Printf.sprintf "par:%d step total equals seq" n)
        seq
        (steps (Some (Printf.sprintf "par:%d" n))))
    [ 2; 3; 4 ]

(* the counterexample every spelling gets, the sequential one,
   revalidates: the extension is admissible and adds a new answer *)
let test_par_witness_is_valid () =
  let dir = scenarios_dir () in
  let s = Scenario.load (Filename.concat dir "crm.ric") in
  List.iter
    (fun (qname, q) ->
      match
        Rcdp.decide ~schema:s.Scenario.db_schema ~master:s.Scenario.master
          ~ccs:(Scenario.all_ccs s) ~db:s.Scenario.db q
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

(* rcqp explain tells the truth: crm Q0's witness is found by the
   heuristic, whose verification runs Rcdp.decide on the same profile
   — the decider note must stay rcqp's — and whose greedy witness
   ticks the caller's budget, so every step the profile attributes is
   one the budget counted. *)
let test_rcqp_explain_crm_q0 () =
  let s = Scenario.load (Filename.concat (scenarios_dir ()) "crm.ric") in
  let q = Option.get (Scenario.find_query s "Q0") in
  let profile = Ric_obs.Profile.create () in
  let clock = Budget.create () in
  (match
     Rcqp.decide ~clock ~profile ~schema:s.Scenario.db_schema ~master:s.Scenario.master
       ~ccs:(Scenario.all_ccs s) q
   with
   | Rcqp.Nonempty { witness = Some _; _ } -> ()
   | _ -> Alcotest.fail "crm Q0 must be nonempty with a witness");
  let snap = Ric_obs.Profile.snapshot profile in
  Alcotest.(check (option string)) "decider note" (Some "rcqp")
    (List.assoc_opt "decider" snap.Ric_obs.Profile.notes);
  Alcotest.(check bool) "the greedy witness ran" true
    (List.mem_assoc "witness_steps" snap.Ric_obs.Profile.counters);
  Alcotest.(check int) "attributed = steps" (Budget.steps clock)
    (Ric_obs.Profile.attributed_steps snap)

let () =
  Alcotest.run "search"
    [
      ( "search mode",
        [ Alcotest.test_case "parse / print" `Quick test_search_mode_strings ] );
      ( "budget",
        [ Alcotest.test_case "deadline trips on time" `Quick test_budget_deadline ] );
      ( "regressions",
        [
          Alcotest.test_case "duplicate shared atoms" `Quick test_duplicate_shared_atoms;
          Alcotest.test_case "entry check: iter_valid" `Quick test_entry_check_search;
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
          Alcotest.test_case "rcqp explain: crm Q0 decider and steps" `Quick
            test_rcqp_explain_crm_q0;
          QCheck_alcotest.to_alcotest prop_generate;
          QCheck_alcotest.to_alcotest prop_search_brute_force;
        ] );
      ( "mode agreement",
        [
          Alcotest.test_case "all scenarios, all modes" `Quick test_modes_agree_on_scenarios;
          Alcotest.test_case "par step totals equal seq" `Quick test_par_step_accounting;
          Alcotest.test_case "par witness revalidates" `Quick test_par_witness_is_valid;
        ] );
    ]

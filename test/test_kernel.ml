(* Tests for the compiled match kernel and its satellites: value
   interning round-trips, relation column buckets, O(1) relation
   cardinality/arity, Valuation.union conflict handling, the
   compiled-vs-naive solve differential (verdicts AND solution sets)
   over random bodies and databases, relation-index reuse counters,
   and the constraint checker's two entry points (Checker.check and
   Checker.check_add) differential against Containment.holds_all. *)

open Ric_relational
open Ric_query
open Ric_constraints
module Metrics = Ric_obs.Metrics

let v = Term.var

(* ------------------------------------------------------------------ *)
(* Intern *)

let test_intern_roundtrip () =
  let vals =
    [ Value.int 0; Value.int 42; Value.str ""; Value.str "a"; Value.str "42" ]
  in
  List.iter
    (fun x ->
      let id = Intern.id x in
      Alcotest.(check bool) "id is stable" true (Intern.id x = id);
      Alcotest.(check bool) "value round-trips" true
        (Value.equal (Intern.value id) x))
    vals;
  (* distinct values, distinct ids — including Int 42 vs Str "42" *)
  let ids = List.map Intern.id vals in
  Alcotest.(check int) "ids are distinct"
    (List.length ids)
    (List.length (List.sort_uniq compare ids));
  let t = Tuple.of_strs [ "a"; "b"; "a" ] in
  let row = Intern.row t in
  Alcotest.(check int) "row arity" 3 (Array.length row);
  Alcotest.(check bool) "row round-trips" true
    (Tuple.equal t (Tuple.make (Array.to_list (Array.map Intern.value row))));
  Alcotest.(check bool) "repeated values share ids" true (row.(0) = row.(2));
  Alcotest.(check bool) "size counts at least these" true
    (Intern.size () >= List.length vals)

(* ------------------------------------------------------------------ *)
(* Rix *)

let test_rix_buckets () =
  let r = Relation.of_str_rows [ [ "0"; "1" ]; [ "0"; "2" ]; [ "1"; "2" ] ] in
  Alcotest.(check bool) "the index is the relation's own" true (Rix.build r == r);
  let id s = Intern.id (Value.str s) in
  Alcotest.(check (list int)) "col 0 bucket '0', rows in decreasing order" [ 1; 0 ]
    (Relation.bucket r 0 (id "0"));
  Alcotest.(check int) "col 1 bucket '2'" 2
    (List.length (Relation.bucket r 1 (id "2")));
  Alcotest.(check (list int)) "absent value" [] (Relation.bucket r 0 (id "9"));
  Alcotest.(check (list int)) "column out of range" [] (Relation.bucket r 7 (id "0"));
  List.iteri
    (fun i tu ->
      Alcotest.(check bool)
        (Printf.sprintf "row %d aligns with tuple %d" i i)
        true
        (Tuple.equal tu
           (Tuple.make
              (Array.to_list (Array.map Intern.value (Relation.rows r).(i))))))
    (Relation.elements r);
  Alcotest.(check int) "empty has no rows" 0 (Array.length (Relation.rows Relation.empty));
  Alcotest.(check (list int)) "empty has no buckets" [] (Relation.bucket Relation.empty 0 (id "0"))

(* ------------------------------------------------------------------ *)
(* Relation satellites: O(1) cardinal must track every operation, and
   the stored arity must behave like the old TSet.choose_opt probe. *)

let rel_of rows = Relation.of_str_rows rows

let test_relation_cardinal () =
  let check_card what r =
    Alcotest.(check int) what (List.length (Relation.elements r))
      (Relation.cardinal r)
  in
  check_card "empty" Relation.empty;
  let r = rel_of [ [ "0"; "1" ]; [ "2"; "3" ] ] in
  check_card "of_str_rows" r;
  check_card "add new" (Relation.add (Tuple.of_strs [ "4"; "5" ]) r);
  let dup = Relation.add (Tuple.of_strs [ "0"; "1" ]) r in
  check_card "add duplicate" dup;
  Alcotest.(check int) "duplicate add keeps cardinal" 2 (Relation.cardinal dup);
  let s = rel_of [ [ "0"; "1" ]; [ "6"; "7" ] ] in
  check_card "union" (Relation.union r s);
  Alcotest.(check int) "union merges overlap" 3
    (Relation.cardinal (Relation.union r s));
  check_card "inter" (Relation.inter r s);
  check_card "diff" (Relation.diff r s);
  check_card "filter"
    (Relation.filter (fun t -> Tuple.get t 0 = Value.str "0") r);
  check_card "project" (Relation.project [ 0 ] (Relation.union r s))

let test_relation_arity () =
  Alcotest.(check bool) "empty arity" true (Relation.arity Relation.empty = None);
  let r = rel_of [ [ "0"; "1" ] ] in
  Alcotest.(check bool) "stored arity" true (Relation.arity r = Some 2);
  (match Relation.add (Tuple.of_strs [ "0" ]) r with
   | (_ : Relation.t) -> Alcotest.fail "arity mismatch must be rejected"
   | exception Invalid_argument _ -> ());
  match Relation.union r (rel_of [ [ "0" ] ]) with
  | (_ : Relation.t) -> Alcotest.fail "union arity mismatch must be rejected"
  | exception Invalid_argument _ -> ()

(* ------------------------------------------------------------------ *)
(* Valuation.union: first conflict wins, agreement merges *)

let test_valuation_union () =
  let mk l =
    List.fold_left (fun m (x, c) -> Valuation.add x (Value.str c) m)
      Valuation.empty l
  in
  (match Valuation.union (mk [ ("x", "0"); ("y", "1") ]) (mk [ ("y", "2") ]) with
   | Some _ -> Alcotest.fail "conflicting bindings must not merge"
   | None -> ());
  match Valuation.union (mk [ ("x", "0"); ("y", "1") ]) (mk [ ("y", "1"); ("z", "2") ]) with
  | None -> Alcotest.fail "agreeing bindings must merge"
  | Some m ->
    Alcotest.(check int) "merged size" 3 (List.length (Valuation.bindings m))

(* ------------------------------------------------------------------ *)
(* Compiled vs naive solve: random conjunctive bodies, inequalities
   and databases; solution sets and early-stop verdicts must agree. *)

let sch =
  Schema.make
    [
      Schema.relation "R" [ Schema.attribute "a"; Schema.attribute "b" ];
      Schema.relation "S" [ Schema.attribute "a" ];
      Schema.relation "T"
        [ Schema.attribute "a"; Schema.attribute "b"; Schema.attribute "c" ];
    ]

let rel_specs = [| ("R", 2); ("S", 1); ("T", 3) |]

(* 0-3 → vars x y z w (w often stays out of the atoms, exercising the
   ignored never-ground-inequality rule); 4-6 → constants "0".."2" *)
let term_of_code k =
  if k < 4 then Term.var [| "x"; "y"; "z"; "w" |].(k)
  else Term.str (string_of_int (k - 4))

let atom_of (r, (c1, c2, c3)) =
  let name, ar = rel_specs.(r) in
  Atom.make name
    (List.filteri (fun i _ -> i < ar) [ c1; c2; c3 ] |> List.map term_of_code)

let db_of rows =
  List.fold_left
    (fun db (r, (a, b, c)) ->
      let name, ar = rel_specs.(r) in
      let vals =
        List.filteri (fun i _ -> i < ar) [ a; b; c ] |> List.map string_of_int
      in
      Database.add_tuple db name (Tuple.of_strs vals))
    (Database.empty sch) rows

let lookup_in db rel =
  try Database.relation db rel with Not_found -> Relation.empty

let solutions ~naive ~lookup ~neqs atoms =
  let out = ref [] in
  let (_ : bool) =
    Match_engine.solve ~lookup ~neqs ~naive atoms (fun mu ->
        out := Valuation.bindings mu :: !out;
        false)
  in
  List.sort compare !out

let gen_body =
  QCheck2.Gen.(
    triple
      (list_size (int_range 1 3)
         (pair (int_bound 2) (triple (int_bound 6) (int_bound 6) (int_bound 6))))
      (list_size (int_bound 2) (pair (int_bound 6) (int_bound 6)))
      (list_size (int_bound 10)
         (pair (int_bound 2) (triple (int_bound 2) (int_bound 2) (int_bound 2)))))

let solve_differential_prop (atom_specs, neq_specs, rows) =
  let atoms = List.map atom_of atom_specs in
  let neqs =
    List.map (fun (a, b) -> (term_of_code a, term_of_code b)) neq_specs
  in
  let db = db_of rows in
  let lookup = lookup_in db in
  let naive = solutions ~naive:true ~lookup ~neqs atoms in
  let compiled = solutions ~naive:false ~lookup ~neqs atoms in
  if naive <> compiled then
    QCheck2.Test.fail_reportf "solution sets diverge: naive %d vs compiled %d"
      (List.length naive) (List.length compiled);
  let exists naive =
    Match_engine.solve ~lookup ~neqs ~naive atoms (fun _ -> true)
  in
  if exists true <> exists false then
    QCheck2.Test.fail_report "early-stop verdicts diverge";
  true

let test_solve_differential =
  QCheck2.Test.make ~name:"compiled solve ≡ naive solve (sets and verdicts)"
    ~count:500 gen_body solve_differential_prop

(* initial valuations: bindings for body variables prune, bindings for
   foreign variables ride through to every reported solution *)
let test_solve_init () =
  let db =
    db_of [ (0, (0, 1, 0)); (0, (1, 2, 0)); (1, (1, 0, 0)); (1, (2, 0, 0)) ]
  in
  let lookup = lookup_in db in
  let atoms = [ Atom.make "R" [ v "x"; v "y" ]; Atom.make "S" [ v "y" ] ] in
  let init =
    Valuation.add "x" (Value.str "0")
      (Valuation.add "alien" (Value.str "elsewhere") Valuation.empty)
  in
  let run naive =
    let out = ref [] in
    let (_ : bool) =
      Match_engine.solve ~lookup ~init ~naive atoms (fun mu ->
          out := Valuation.bindings mu :: !out;
          false)
    in
    List.sort compare !out
  in
  let compiled = run false in
  Alcotest.(check bool) "init agrees with naive" true (run true = compiled);
  Alcotest.(check int) "x=0 leaves one solution" 1 (List.length compiled);
  List.iter
    (fun sol ->
      Alcotest.(check bool) "foreign binding rides through" true
        (List.mem_assoc "alien" sol))
    compiled

(* ------------------------------------------------------------------ *)
(* Relation-index reuse: a join over the same physical relation finds
   its index built (reuse counter), a changed relation builds its own
   (build counter).  The join probes S's column with y bound, so the
   index is built at all. *)

let test_relation_index_reuse () =
  let builds = Metrics.counter "ric_match_index_builds_total" in
  let reuses = Metrics.counter "ric_match_index_reuses_total" in
  let db =
    db_of [ (0, (0, 1, 0)); (0, (1, 2, 0)); (1, (1, 0, 0)); (1, (2, 0, 0)); (1, (3, 0, 0)) ]
  in
  let atoms = [ Atom.make "R" [ v "x"; v "y" ]; Atom.make "S" [ v "y" ] ] in
  let solve db =
    ignore (Match_engine.solve ~lookup:(lookup_in db) atoms (fun _ -> false))
  in
  let b0 = Metrics.counter_value builds in
  solve db;
  let b1 = Metrics.counter_value builds in
  Alcotest.(check bool) "first solve builds" true (b1 > b0);
  let r0 = Metrics.counter_value reuses in
  solve db;
  Alcotest.(check int) "second solve rebuilds nothing" b1
    (Metrics.counter_value builds);
  Alcotest.(check bool) "second solve reuses" true
    (Metrics.counter_value reuses > r0);
  (* a grown relation is a new relation, with an index of its own *)
  solve (Database.add_tuple db "S" (Tuple.of_strs [ "4" ]));
  Alcotest.(check bool) "changed relation rebuilds" true
    (Metrics.counter_value builds > b1)

(* ------------------------------------------------------------------ *)
(* Full check: differential against holds_all over random base/delta
   splits (no precondition). *)

let cc_master =
  Database.of_list
    (Schema.make
       [
         Schema.relation "M" [ Schema.attribute "a"; Schema.attribute "b" ];
         Schema.relation "N" [ Schema.attribute "a" ];
       ])
    [
      ( "M",
        Relation.of_str_rows
          [ [ "0"; "0" ]; [ "0"; "1" ]; [ "1"; "2" ]; [ "2"; "2" ] ] );
      ("N", Relation.of_str_rows [ [ "0" ]; [ "1" ] ]);
    ]

let ccs =
  [
    Containment.make ~name:"rm"
      (Lang.Q_cq
         (Cq.make ~head:[ v "x"; v "y" ] [ Atom.make "R" [ v "x"; v "y" ] ]))
      (Projection.proj "M" [ 0; 1 ]);
    Containment.make ~name:"join"
      (Lang.Q_cq
         (Cq.make ~head:[ v "y" ]
            [ Atom.make "R" [ v "x"; v "y" ]; Atom.make "S" [ v "y" ] ]))
      (Projection.proj "N" [ 0 ]);
    Containment.make ~name:"neq"
      (Lang.Q_cq
         (Cq.make
            ~neqs:[ (v "x", v "y") ]
            ~head:[ v "x" ]
            [ Atom.make "R" [ v "x"; v "x" ]; Atom.make "S" [ v "y" ] ]))
      Projection.Empty;
    Containment.make ~name:"const"
      (Lang.Q_cq
         (Cq.make ~head:[ v "x" ]
            [ Atom.make "S" [ v "x" ]; Atom.make "S" [ Term.str "3" ] ]))
      Projection.Empty;
  ]

let gen_split =
  QCheck2.Gen.(
    list_size (int_bound 12)
      (triple bool (int_bound 1)
         (triple (int_bound 3) (int_bound 3) (int_bound 3))))

let compiled_check_prop picks =
  let base_rows, delta_rows =
    List.partition_map
      (fun (to_base, r, vals) ->
        if to_base then Either.Left (r, vals) else Either.Right (r, vals))
      picks
  in
  let base = db_of base_rows and delta = db_of delta_rows in
  let db = Database.union base delta in
  let chk = Checker.create ~master:cc_master ccs in
  let fast = Checker.check chk ~base ~delta = None in
  let slow = Containment.holds_all ~db ~master:cc_master ccs in
  if fast <> slow then
    QCheck2.Test.fail_reportf "Checker.check %b vs holds_all %b" fast slow;
  true

let test_compiled_differential =
  QCheck2.Test.make
    ~name:"Checker.check ≡ holds_all over random base/delta splits" ~count:300
    gen_split compiled_check_prop

(* unsafe LHS: both entry points must keep the evaluator's error *)
let test_compiled_unsafe_fallback () =
  let cc =
    Containment.make ~name:"unsafe"
      (Lang.Q_cq (Cq.make ~head:[ v "q" ] [ Atom.make "S" [ v "x" ] ]))
      (Projection.proj "N" [ 0 ])
  in
  let db = db_of [ (1, (0, 0, 0)) ] in
  let chk = Checker.create ~master:cc_master [ cc ] in
  let empty = Database.empty sch in
  let expect_invalid what f =
    match f () with
    | (_ : bool) -> Alcotest.failf "%s must reject the unsafe query" what
    | exception Invalid_argument _ -> ()
  in
  expect_invalid "holds_all" (fun () ->
      Containment.holds_all ~db ~master:cc_master [ cc ]);
  expect_invalid "Checker.check" (fun () ->
      Checker.check chk ~base:empty ~delta:db = None);
  expect_invalid "Checker.check_add" (fun () ->
      let tuple = Tuple.of_strs [ "0" ] in
      Checker.check_add chk ~base:empty ~delta:db ~rel:"S" ~tuple = None)

(* ------------------------------------------------------------------ *)
(* Delta check: both base/delta decompositions used by the search must
   agree with the full check and with holds_all along accepted growth
   chains (the delta check's precondition). *)

let overlay_chain_prop adds =
  let chk = Checker.create ~master:cc_master ccs in
  let empty_db = Database.empty sch in
  if Checker.check chk ~base:empty_db ~delta:empty_db <> None then
    QCheck2.Test.fail_report "empty database must satisfy the test constraints";
  let db = ref empty_db in
  List.iter
    (fun (pick, a, b) ->
      let rel, tuple =
        if pick land 1 = 0 then
          ("R", Tuple.of_strs [ string_of_int a; string_of_int b ])
        else ("S", Tuple.of_strs [ string_of_int a ])
      in
      let grown = Database.add_tuple !db rel tuple in
      let singleton = Database.add_tuple empty_db rel tuple in
      let slow = Containment.holds_all ~db:grown ~master:cc_master ccs in
      let full = Checker.check chk ~base:!db ~delta:singleton = None in
      (* delta-only decomposition: everything is overlay *)
      let delta_only =
        Checker.check_add chk ~base:empty_db ~delta:grown ~rel ~tuple = None
      in
      (* against-base decomposition: parent fixed, new tuple as delta *)
      let split =
        Checker.check_add chk ~base:!db ~delta:singleton ~rel ~tuple = None
      in
      if full <> slow || delta_only <> slow || split <> slow then
        QCheck2.Test.fail_reportf
          "%s: holds_all %b, check %b, check_add(delta) %b, check_add(split) %b"
          rel slow full delta_only split;
      if slow then db := grown)
    adds;
  true

let test_overlay_differential =
  QCheck2.Test.make
    ~name:"check_add ≡ check ≡ holds_all on growth chains"
    ~count:300
    QCheck2.Gen.(
      list_size (int_bound 12)
        (triple (int_bound 7) (int_bound 3) (int_bound 3)))
    overlay_chain_prop

(* A batch after a closed base: [check_adds] probes every new tuple
   once against the whole batch and must agree with holds_all, whether
   the batch is the overlay or already merged into [base] (the write
   path's shape); [mem_answer] must agree with membership in the
   evaluated answer set, over and beside the overlay. *)
let batch_prop (base_rows, batch_rows) =
  let chk = Checker.create ~master:cc_master ccs in
  let base =
    List.fold_left
      (fun db row ->
        let grown = Database.union db (db_of [ row ]) in
        if Containment.holds_all ~db:grown ~master:cc_master ccs then grown else db)
      (Database.empty sch) base_rows
  in
  let delta = db_of batch_rows in
  let added =
    Database.fold
      (fun rel r acc ->
        Relation.fold
          (fun tu acc ->
            if Relation.mem tu (Database.relation base rel) then acc
            else (rel, tu) :: acc)
          r acc)
      delta []
  in
  let db = Database.union base delta in
  let slow = Containment.holds_all ~db ~master:cc_master ccs in
  let full = Checker.check chk ~base:(Database.empty sch) ~delta:db in
  let fast = Checker.check_adds chk ~base ~delta ~added in
  let merged = Checker.check_adds chk ~base:db ~delta:(Database.empty sch) ~added in
  (* every check names the declaration-first violated CC *)
  let name = Option.value ~default:"-" in
  if (full = None) <> slow || fast <> full || merged <> full then
    QCheck2.Test.fail_reportf
      "check_adds overlay %s, merged %s vs check %s, holds_all %b (%d added)"
      (name fast) (name merged) (name full) slow (List.length added);
  let values = [ "0"; "1"; "2"; "3" ] in
  let rec tuples = function
    | 0 -> [ [] ]
    | n -> List.concat_map (fun t -> List.map (fun x -> x :: t) values) (tuples (n - 1))
  in
  List.iter
    (fun (cc : Containment.t) ->
      let q = cc.Containment.lhs in
      let arity = match q with Lang.Q_cq c -> Cq.arity c | _ -> assert false in
      List.iter
        (fun vals ->
          let t = Tuple.of_strs vals in
          List.iter
            (fun (what, db, delta) ->
              let want = Relation.mem t (Lang.eval db q) in
              let got = Checker.mem_answer chk ~base ~delta q t in
              if want <> got then
                QCheck2.Test.fail_reportf "%s: mem_answer %b vs eval %b (%s)"
                  cc.Containment.cc_name got want what)
            [ ("base ∪ delta", db, delta); ("base", base, Database.empty sch) ])
        (tuples arity))
    ccs;
  true

let test_batch_differential =
  QCheck2.Test.make
    ~name:"check_adds ≡ holds_all, mem_answer ≡ eval after a closed base"
    ~count:300
    QCheck2.Gen.(
      let row = pair (int_bound 1) (triple (int_bound 3) (int_bound 3) (int_bound 3)) in
      pair (list_size (int_bound 10) row) (list_size (int_bound 5) row))
    batch_prop

(* Satellite regression: the already-interned fast path takes zero
   locks.  The first [row] on fresh values may intern (locking at most
   once for the whole row); every later [id]/[row] over the same values
   must leave the acquisition counter untouched — that counter is what
   the bench reports per million search steps. *)
let test_intern_lock_free_fast_path () =
  let t = Tuple.of_strs [ "lockfree-a"; "lockfree-b"; "lockfree-a" ] in
  let first = Intern.row t in
  let before = Intern.lock_acquisitions () in
  for _ = 1 to 1_000 do
    let again = Intern.row t in
    assert (again = first);
    ignore (Intern.id (Value.str "lockfree-b"))
  done;
  Alcotest.(check int) "fully interned row/id take zero locks" before
    (Intern.lock_acquisitions ());
  (* a genuinely new value still interns correctly — and pays *)
  ignore (Intern.id (Value.str "lockfree-fresh"));
  Alcotest.(check bool) "true interning is counted" true
    (Intern.lock_acquisitions () > before)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "kernel"
    [
      ( "intern",
        [
          Alcotest.test_case "round-trip" `Quick test_intern_roundtrip;
          Alcotest.test_case "lock-free fast path" `Quick
            test_intern_lock_free_fast_path;
        ] );
      ("rix", [ Alcotest.test_case "buckets" `Quick test_rix_buckets ]);
      ( "relation",
        [
          Alcotest.test_case "cardinal is exact" `Quick test_relation_cardinal;
          Alcotest.test_case "stored arity" `Quick test_relation_arity;
        ] );
      ( "valuation",
        [ Alcotest.test_case "union conflicts" `Quick test_valuation_union ] );
      ( "solve",
        [
          QCheck_alcotest.to_alcotest test_solve_differential;
          Alcotest.test_case "initial valuations" `Quick test_solve_init;
        ] );
      ( "relation index",
        [ Alcotest.test_case "reuse across joins" `Quick test_relation_index_reuse ] );
      ( "compiled",
        [
          QCheck_alcotest.to_alcotest test_compiled_differential;
          Alcotest.test_case "unsafe fallback" `Quick
            test_compiled_unsafe_fallback;
        ] );
      ( "incremental overlay",
        [
          QCheck_alcotest.to_alcotest test_overlay_differential;
          QCheck_alcotest.to_alcotest test_batch_differential;
        ] );
    ]

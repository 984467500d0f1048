(* Unit and property tests for the relational substrate. *)

open Ric_relational

let value_testable = Alcotest.testable Value.pp Value.equal
let tuple_testable = Alcotest.testable Tuple.pp Tuple.equal
let relation_testable = Alcotest.testable Relation.pp Relation.equal

(* ------------------------------------------------------------------ *)
(* Value *)

let test_value_order () =
  Alcotest.(check bool) "int < str" true (Value.compare (Value.Int 5) (Value.Str "a") < 0);
  Alcotest.(check bool) "int order" true (Value.compare (Value.Int 1) (Value.Int 2) < 0);
  Alcotest.(check bool) "str equal" true (Value.equal (Value.Str "x") (Value.Str "x"));
  Alcotest.(check bool) "int/str not equal" false (Value.equal (Value.Int 0) (Value.Str "0"))

let test_value_pp () =
  Alcotest.(check string) "int" "42" (Value.to_string (Value.int 42));
  Alcotest.(check string) "str" "abc" (Value.to_string (Value.str "abc"));
  Alcotest.(check string) "quoted str" "'abc'"
    (Format.asprintf "%a" Value.pp_quoted (Value.str "abc"))

(* ------------------------------------------------------------------ *)
(* Domain *)

let test_domain_finite () =
  let d = Domain.finite [ Value.int 0; Value.int 1; Value.int 0 ] in
  Alcotest.(check bool) "mem 0" true (Domain.mem (Value.int 0) d);
  Alcotest.(check bool) "mem 2" false (Domain.mem (Value.int 2) d);
  Alcotest.(check int) "dedup" 2 (List.length (Option.get (Domain.values d)))

let test_domain_finite_too_small () =
  Alcotest.check_raises "singleton rejected"
    (Invalid_argument "Domain.finite: a finite domain needs at least two elements")
    (fun () -> ignore (Domain.finite [ Value.int 0 ]))

let test_domain_infinite () =
  Alcotest.(check bool) "everything" true (Domain.mem (Value.str "anything") Domain.infinite);
  Alcotest.(check bool) "no listing" true (Domain.values Domain.infinite = None)

(* ------------------------------------------------------------------ *)
(* Schema *)

let r_schema =
  Schema.make
    [
      Schema.relation "R" [ Schema.attribute "a"; Schema.attribute ~dom:Domain.boolean "b" ];
      Schema.relation "S" [ Schema.attribute "x" ];
    ]

let test_schema_lookup () =
  Alcotest.(check int) "arity R" 2 (Schema.arity (Schema.find r_schema "R"));
  Alcotest.(check int) "attr index" 1 (Schema.attr_index (Schema.find r_schema "R") "b");
  Alcotest.(check bool) "mem" true (Schema.mem r_schema "S");
  Alcotest.(check bool) "not mem" false (Schema.mem r_schema "T");
  Alcotest.(check bool) "finite dom col"
    true
    (Domain.is_finite (Schema.attr_domain (Schema.find r_schema "R") 1))

let test_schema_duplicates () =
  Alcotest.check_raises "dup relation" (Invalid_argument "Schema: duplicate relation \"R\"")
    (fun () ->
      ignore (Schema.make [ Schema.relation "R" []; Schema.relation "R" [] ]));
  Alcotest.check_raises "dup attribute" (Invalid_argument "Schema: duplicate attribute \"a\"")
    (fun () -> ignore (Schema.relation "R" [ Schema.attribute "a"; Schema.attribute "a" ]))

(* ------------------------------------------------------------------ *)
(* Tuple *)

let test_tuple_basics () =
  let t = Tuple.of_ints [ 1; 2; 3 ] in
  Alcotest.(check int) "arity" 3 (Tuple.arity t);
  Alcotest.check value_testable "get" (Value.int 2) (Tuple.get t 1);
  Alcotest.check tuple_testable "project" (Tuple.of_ints [ 3; 1 ]) (Tuple.project [ 2; 0 ] t)

(* Every sort, binary search and merge of a relation compares tuples:
   a compare must not allocate. *)
let test_tuple_compare_allocates_nothing () =
  let a = Sys.opaque_identity (Tuple.make [ Value.int 1; Value.str "e0"; Value.int 7 ]) in
  let b = Sys.opaque_identity (Tuple.make [ Value.int 1; Value.str "e0"; Value.int 8 ]) in
  let sum = ref 0 in
  let before = Gc.minor_words () in
  for _ = 1 to 10_000 do
    sum := !sum + Tuple.compare a b
  done;
  let words = Gc.minor_words () -. before in
  Alcotest.(check int) "every compare ran" (-10_000) !sum;
  (* the two [Gc.minor_words] readings box a float or two *)
  Alcotest.(check bool) (Printf.sprintf "%.0f words for 10^4 compares" words) true (words < 16.)

let test_tuple_conforms () =
  let r = Schema.find r_schema "R" in
  Alcotest.(check bool) "conforms" true (Tuple.conforms r (Tuple.of_ints [ 7; 1 ]));
  Alcotest.(check bool) "bad finite value" false (Tuple.conforms r (Tuple.of_ints [ 7; 9 ]));
  Alcotest.(check bool) "bad arity" false (Tuple.conforms r (Tuple.of_ints [ 7 ]))

(* ------------------------------------------------------------------ *)
(* Relation *)

let test_relation_set_semantics () =
  let r = Relation.of_int_rows [ [ 1; 2 ]; [ 1; 2 ]; [ 3; 4 ] ] in
  Alcotest.(check int) "dedup" 2 (Relation.cardinal r);
  Alcotest.(check bool) "mem" true (Relation.mem (Tuple.of_ints [ 3; 4 ]) r);
  let p = Relation.project [ 0 ] r in
  Alcotest.(check int) "projection" 2 (Relation.cardinal p)

let test_relation_algebra () =
  let a = Relation.of_int_rows [ [ 1 ]; [ 2 ] ] in
  let b = Relation.of_int_rows [ [ 2 ]; [ 3 ] ] in
  Alcotest.(check int) "union" 3 (Relation.cardinal (Relation.union a b));
  Alcotest.(check int) "inter" 1 (Relation.cardinal (Relation.inter a b));
  Alcotest.(check int) "diff" 1 (Relation.cardinal (Relation.diff a b));
  Alcotest.(check bool) "subset" true (Relation.subset (Relation.inter a b) a)

let test_relation_arity_mismatch () =
  let a = Relation.of_int_rows [ [ 1 ] ] in
  Alcotest.check_raises "add" (Invalid_argument "Relation: arity mismatch (2 vs 1)")
    (fun () -> ignore (Relation.add (Tuple.of_ints [ 1; 2 ]) a))

(* ------------------------------------------------------------------ *)
(* Columnar builder *)

let build_rows rows =
  let b = Relation.Builder.create () in
  List.iter
    (fun row ->
      List.iter (fun v -> Relation.Builder.add_cell b (Intern.id v)) row;
      Relation.Builder.end_row b)
    rows;
  Relation.Builder.finish b

let test_builder_matches_of_tuples () =
  let rows =
    [
      [ Value.str "b"; Value.int 2 ];
      [ Value.str "a"; Value.int 1 ];
      [ Value.str "b"; Value.int 2 ] (* duplicate *);
      [ Value.int 0; Value.str "z" ];
    ]
  in
  let built = build_rows rows in
  let reference = Relation.of_tuples (List.map Tuple.make rows) in
  Alcotest.check relation_testable "equal as sets" reference built;
  Alcotest.(check int) "deduplicated" 3 (Relation.cardinal built);
  (* elements come out in Tuple.compare order from either constructor *)
  Alcotest.(check (list tuple_testable)) "same iteration order"
    (Relation.elements reference) (Relation.elements built);
  Alcotest.(check bool) "same interned rows" true
    (Relation.rows reference = Relation.rows built);
  Alcotest.(check bool) "mem hits" true
    (Relation.mem (Tuple.make [ Value.str "a"; Value.int 1 ]) built);
  let grown = Relation.add (Tuple.of_ints [ 5; 5 ]) built in
  Alcotest.(check int) "add on a built relation" 4 (Relation.cardinal grown)

let test_builder_large_block_sorted () =
  (* enough rows to cross the radix-sort threshold, in reverse order *)
  let n = 5000 in
  let rows = List.init n (fun i -> [ Value.int (n - i); Value.int ((n - i) mod 7) ]) in
  let built = build_rows rows in
  Alcotest.(check int) "all distinct" n (Relation.cardinal built);
  let sorted = Relation.elements built in
  Alcotest.(check bool) "rank-lex sorted" true
    (List.for_all2 Tuple.equal sorted (List.sort Tuple.compare sorted))

let test_builder_arity_mismatch () =
  let b = Relation.Builder.create () in
  Relation.Builder.add_cell b (Intern.id (Value.int 1));
  Relation.Builder.add_cell b (Intern.id (Value.int 2));
  Relation.Builder.end_row b;
  Relation.Builder.add_cell b (Intern.id (Value.int 3));
  Alcotest.check_raises "short row" (Invalid_argument "Relation: arity mismatch (1 vs 2)")
    (fun () -> Relation.Builder.end_row b);
  (* the offending row is discarded, the builder stays usable *)
  Relation.Builder.add_cell b (Intern.id (Value.int 4));
  Relation.Builder.add_cell b (Intern.id (Value.int 5));
  Relation.Builder.end_row b;
  Alcotest.(check int) "two good rows" 2 (Relation.cardinal (Relation.Builder.finish b))

let test_intern_reserve () =
  Intern.reserve (Intern.size () + 5000);
  let before = Intern.growths () in
  for i = 0 to 3999 do
    ignore (Intern.id (Value.str (Printf.sprintf "reserve-probe-%d" i)))
  done;
  Alcotest.(check int) "no growth after reserve" before (Intern.growths ())

(* ------------------------------------------------------------------ *)
(* Database *)

let test_database_basics () =
  let d = Database.of_list r_schema [ ("R", Relation.of_int_rows [ [ 1; 0 ] ]) ] in
  Alcotest.(check int) "tuples" 1 (Database.total_tuples d);
  Alcotest.check relation_testable "S empty" Relation.empty (Database.relation d "S");
  let d2 = Database.add_tuple d "S" (Tuple.of_ints [ 9 ]) in
  Alcotest.(check bool) "contained" true (Database.contained d d2);
  Alcotest.(check bool) "not contained" false (Database.contained d2 d);
  Alcotest.(check int) "adom" 3 (List.length (Database.adom d2))

let test_database_conformance () =
  Alcotest.(check bool) "bad tuple rejected" true
    (try
       ignore (Database.add_tuple (Database.empty r_schema) "R" (Tuple.of_ints [ 1; 5 ]));
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "unknown relation rejected" true
    (try
       ignore (Database.add_tuple (Database.empty r_schema) "T" (Tuple.of_ints [ 1 ]));
       false
     with Invalid_argument _ -> true)

let test_database_union () =
  let d1 = Database.of_list r_schema [ ("R", Relation.of_int_rows [ [ 1; 0 ] ]) ] in
  let d2 = Database.of_list r_schema [ ("R", Relation.of_int_rows [ [ 2; 1 ] ]) ] in
  let u = Database.union d1 d2 in
  Alcotest.(check int) "union size" 2 (Database.total_tuples u);
  Alcotest.(check bool) "idempotent" true (Database.equal u (Database.union u d1))

(* ------------------------------------------------------------------ *)
(* Properties *)

let tuple_gen =
  QCheck2.Gen.(map (fun l -> Tuple.of_ints l) (list_size (return 2) (int_bound 5)))

let relation_gen =
  QCheck2.Gen.(map Relation.of_tuples (list_size (int_bound 8) tuple_gen))

let prop_union_commutative =
  QCheck2.Test.make ~name:"relation union commutes" ~count:200
    QCheck2.Gen.(pair relation_gen relation_gen)
    (fun (a, b) -> Relation.equal (Relation.union a b) (Relation.union b a))

let prop_project_idempotent =
  QCheck2.Test.make ~name:"projecting twice is projecting once" ~count:200 relation_gen
    (fun r ->
      let p = Relation.project [ 0 ] r in
      Relation.equal p (Relation.project [ 0 ] p))

let prop_diff_subset =
  QCheck2.Test.make ~name:"diff is disjoint from subtrahend" ~count:200
    QCheck2.Gen.(pair relation_gen relation_gen)
    (fun (a, b) -> Relation.is_empty (Relation.inter (Relation.diff a b) b))

let prop_containment_partial_order =
  QCheck2.Test.make ~name:"database containment is reflexive and transitive via union"
    ~count:100
    QCheck2.Gen.(pair relation_gen relation_gen)
    (fun (a, b) ->
      let sch = Schema.make [ Schema.relation "R" [ Schema.attribute "a"; Schema.attribute "b" ] ] in
      let da = Database.of_list sch [ ("R", a) ] in
      let db_ = Database.of_list sch [ ("R", b) ] in
      let u = Database.union da db_ in
      Database.contained da da && Database.contained da u && Database.contained db_ u)

(* ------------------------------------------------------------------ *)
(* Cached constants: [Relation.values] must be the sorted, deduplicated
   constants of the tuples, whatever chain of operations built the
   relation and whether or not each parent's values were already known
   when [add] extended them. *)

let value_gen =
  QCheck2.Gen.(
    oneof [ map Value.int (int_range (-2) 4); map Value.str (oneofl [ "a"; "b"; "c"; "d" ]) ])

let mixed_tuple_gen = QCheck2.Gen.(map Tuple.make (list_size (return 2) value_gen))

type op =
  | Add of Tuple.t
  | Union of Tuple.t list
  | Diff of Tuple.t list
  | Filter of int (* keep tuples whose first value hashes to this parity *)
  | Rebuild (* of_tuples over the elements *)
  | Pack (* Builder over the elements *)

let op_gen =
  let tuples = QCheck2.Gen.(list_size (int_bound 4) mixed_tuple_gen) in
  QCheck2.Gen.(
    frequency
      [
        (6, map (fun t -> Add t) mixed_tuple_gen);
        (2, map (fun ts -> Union ts) tuples);
        (1, map (fun ts -> Diff ts) tuples);
        (1, map (fun p -> Filter p) (int_bound 1));
        (1, return Rebuild);
        (1, return Pack);
      ])

let show_op = function
  | Add t -> Format.asprintf "add %a" Tuple.pp t
  | Union ts -> Format.asprintf "union %a" Relation.pp (Relation.of_tuples ts)
  | Diff ts -> Format.asprintf "diff %a" Relation.pp (Relation.of_tuples ts)
  | Filter p -> Printf.sprintf "filter %d" p
  | Rebuild -> "of_tuples"
  | Pack -> "builder"

let expected_values r =
  List.sort_uniq Value.compare (List.concat_map Tuple.values (Relation.elements r))

(* bucket [c] of value [v]: the indexes of the elements holding [v] at
   [c], by a filter, in decreasing order *)
let expected_bucket r c v =
  List.rev
    (List.filter_map Fun.id
       (List.mapi
          (fun i t -> if Value.equal (Tuple.get t c) v then Some i else None)
          (Relation.elements r)))

let prop_values_cached =
  QCheck2.Test.make ~name:"cached values ≡ sort_uniq of the tuple values" ~count:400
    ~print:(fun (force, start, ops) ->
      Printf.sprintf "force %b, start %d tuples: %s" force (List.length start)
        (String.concat "; " (List.map show_op ops)))
    QCheck2.Gen.(
      triple bool (list_size (int_bound 6) mixed_tuple_gen) (list_size (int_bound 12) op_gen))
    (fun (force, start, ops) ->
      let step r = function
        | Add t ->
          if force then ignore (Relation.values r);
          Relation.add t r
        | Union ts ->
          let other = Relation.of_tuples ts in
          if force then ignore (Relation.values other);
          Relation.union r other
        | Diff ts -> Relation.diff r (Relation.of_tuples ts)
        | Filter p -> Relation.filter (fun t -> Value.hash (Tuple.get t 0) land 1 = p) r
        | Rebuild -> Relation.of_tuples (Relation.elements r)
        | Pack -> build_rows (List.map Tuple.values (Relation.elements r))
      in
      let check what r =
        if Relation.values r <> expected_values r then
          QCheck2.Test.fail_reportf "after %s: values [%s], tuples %a" what
            (String.concat " " (List.map Value.to_string (Relation.values r)))
            Relation.pp r
      in
      (* unforced, only the end of the chain is read: no memo is known
         before it but those the operations fill themselves *)
      let r0 = if force then build_rows (List.map Tuple.values start) else Relation.of_tuples start in
      check "the chain"
        (List.fold_left
           (fun r op ->
             let r = step r op in
             if force then check (show_op op) r;
             r)
           r0 ops);
      true)

(* Two domains force one relation's memos at once — its values and
   each column's buckets — on relations from both constructors:
   nothing raises, both get the same, right answers, and each column
   is built once. *)
let test_values_two_domains () =
  let rows = List.init 20_000 (fun i -> [ Value.int (i mod 997); Value.str (Printf.sprintf "s%d" (i mod 331)) ]) in
  let builds = Ric_obs.Metrics.counter "ric_match_index_builds_total" in
  let probe = [ (0, Value.int 5); (1, Value.str "s7") ] in
  List.iter
    (fun (name, r) ->
      let want = expected_values r in
      let want_buckets = List.map (fun (c, v) -> expected_bucket r c v) probe in
      let go = Atomic.make false in
      let force () =
        while not (Atomic.get go) do
          Stdlib.Domain.cpu_relax ()
        done;
        let vs = Relation.values r in
        (vs, List.map (fun (c, v) -> Relation.bucket r c (Intern.id v)) probe)
      in
      let b0 = Ric_obs.Metrics.counter_value builds in
      let d1 = Stdlib.Domain.spawn force and d2 = Stdlib.Domain.spawn force in
      Atomic.set go true;
      let v1, k1 = Stdlib.Domain.join d1 and v2, k2 = Stdlib.Domain.join d2 in
      Alcotest.(check bool) (name ^ ": both domains agree") true (v1 = v2 && k1 = k2);
      Alcotest.(check bool) (name ^ ": the right values") true (v1 = want);
      Alcotest.(check bool) (name ^ ": the right buckets") true (k1 = want_buckets);
      Alcotest.(check int) (name ^ ": each column built once") 2
        (Ric_obs.Metrics.counter_value builds - b0))
    [
      ("builder", build_rows rows);
      ("of_tuples", Relation.of_tuples (List.map Tuple.make rows));
    ]

(* A relation's first [values] costs its own cells, not the intern
   table: with 2·10^5 values interned, a one-row relation's allocates
   a few words. *)
let test_values_no_cliff () =
  for i = 0 to 200_000 - 1 do
    ignore (Intern.id (Value.str (Printf.sprintf "cliff-%d" i)))
  done;
  let r = Relation.of_tuples [ Tuple.of_strs [ "cliff-1"; "cliff-2"; "cliff-3" ] ] in
  let before = Gc.allocated_bytes () in
  let vs = Relation.values r in
  let allocated = Gc.allocated_bytes () -. before in
  Alcotest.(check int) "three values" 3 (List.length vs);
  Alcotest.(check bool)
    (Printf.sprintf "allocates under 64 KB (%.0f bytes)" allocated)
    true (allocated < 65536.)

let test_value_union_sorted () =
  let l xs = List.map Value.int xs in
  Alcotest.(check bool) "merge" true
    (Value.union_sorted (l [ 1; 3; 5 ]) (l [ 2; 3; 6 ]) = l [ 1; 2; 3; 5; 6 ]);
  Alcotest.(check bool) "ints before strings" true
    (Value.union_sorted [ Value.str "a" ] (l [ 7 ]) = [ Value.int 7; Value.str "a" ])

(* ------------------------------------------------------------------ *)
(* Model test: every [Relation] operation against a sorted, deduplicated
   tuple list, on relations from [of_tuples], from [Builder.finish] and
   from a mix of both (a built half unioned with a listed half, then a
   few [add]s). *)

let model l = List.sort_uniq Tuple.compare l

let rec compare_lists a b =
  match (a, b) with
  | [], [] -> 0
  | [], _ -> -1
  | _, [] -> 1
  | x :: a, y :: b ->
    let c = Tuple.compare x y in
    if c <> 0 then c else compare_lists a b

type origin =
  | Listed
  | Built
  | Mixed

let make_rel origin ts =
  match origin with
  | Listed -> Relation.of_tuples ts
  | Built -> build_rows (List.map Tuple.values ts)
  | Mixed ->
    let n = List.length ts in
    let first = List.filteri (fun i _ -> i < n / 2) ts
    and rest = List.filteri (fun i _ -> i >= n / 2) ts in
    let adds = List.filteri (fun i _ -> i < 2) rest in
    List.fold_left
      (fun r t -> Relation.add t r)
      (Relation.union (build_rows (List.map Tuple.values first)) (Relation.of_tuples rest))
      adds

let origin_gen = QCheck2.Gen.oneofl [ Listed; Built; Mixed ]
let side_gen = QCheck2.Gen.(pair origin_gen (list_size (int_bound 10) mixed_tuple_gen))

let show_side (o, ts) =
  Format.asprintf "%s %a"
    (match o with Listed -> "of_tuples" | Built -> "builder" | Mixed -> "mixed")
    (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf " ") Tuple.pp)
    ts

let prop_model =
  QCheck2.Test.make ~name:"every relation operation ≡ its sorted-list model" ~count:500
    ~print:(fun (a, b, t) ->
      Format.asprintf "a = %s; b = %s; t = %a" (show_side a) (show_side b) Tuple.pp t)
    QCheck2.Gen.(triple side_gen side_gen mixed_tuple_gen)
    (fun ((oa, la), (ob, lb), t) ->
      let a = make_rel oa la and b = make_rel ob lb in
      let ma = model la and mb = model lb in
      let same what r m =
        if not (List.equal Tuple.equal (Relation.elements r) m) then
          QCheck2.Test.fail_reportf "%s: %a, model %a" what Relation.pp r Relation.pp
            (Relation.of_tuples m)
      in
      let check what ok = if not ok then QCheck2.Test.fail_reportf "%s" what in
      same "elements" a ma;
      check "fold order"
        (List.equal Tuple.equal (List.rev (Relation.fold List.cons a [])) ma);
      check "iter order"
        (let seen = ref [] in
         Relation.iter (fun t -> seen := t :: !seen) a;
         List.equal Tuple.equal (List.rev !seen) ma);
      check "cardinal" (Relation.cardinal a = List.length ma);
      check "is_empty" (Relation.is_empty a = (ma = []));
      check "arity" (Relation.arity a = (match ma with [] -> None | t :: _ -> Some (Tuple.arity t)));
      List.iter
        (fun u -> check "mem" (Relation.mem u a = List.exists (Tuple.equal u) ma))
        (t :: lb);
      same "add" (Relation.add t a) (model (t :: ma));
      same "union" (Relation.union a b) (model (ma @ mb));
      same "diff" (Relation.diff a b) (List.filter (fun u -> not (List.exists (Tuple.equal u) mb)) ma);
      same "inter" (Relation.inter a b) (List.filter (fun u -> List.exists (Tuple.equal u) mb) ma);
      check "subset" (Relation.subset a b = List.for_all (fun u -> List.exists (Tuple.equal u) mb) ma);
      check "equal" (Relation.equal a b = List.equal Tuple.equal ma mb);
      check "compare" (Int.compare (Relation.compare a b) 0 = Int.compare (compare_lists ma mb) 0);
      let p u = Value.hash (Tuple.get u 0) land 1 = 0 in
      same "filter" (Relation.filter p a) (List.filter p ma);
      same "project" (Relation.project [ 1; 0 ] a) (model (List.map (Tuple.project [ 1; 0 ]) ma));
      same "project one column" (Relation.project [ 0 ] a) (model (List.map (Tuple.project [ 0 ]) ma));
      let f u = Tuple.make [ Tuple.get u 1; Value.int 0 ] in
      same "map" (Relation.map f a) (model (List.map f ma));
      check "values" (Relation.values a = expected_values a);
      check "rows"
        (List.equal Tuple.equal
           (Array.to_list (Array.map (Array.map Intern.value) (Relation.rows a)))
           ma);
      List.iter
        (fun c ->
          List.iter
            (fun v ->
              if Relation.bucket a c (Intern.id v) <> expected_bucket a c v then
                QCheck2.Test.fail_reportf "bucket %d of %a" c Value.pp v)
            (Value.str "absent" :: List.concat_map Tuple.values ma))
        [ 0; 1 ];
      check "bucket out of range" (Relation.bucket a 2 (Intern.id (Value.int 0)) = []);
      true)

let properties =
  List.map QCheck_alcotest.to_alcotest
    [ prop_union_commutative; prop_project_idempotent; prop_diff_subset;
      prop_containment_partial_order; prop_values_cached; prop_model ]

let () =
  Alcotest.run "relational"
    [
      ( "value",
        [
          Alcotest.test_case "ordering" `Quick test_value_order;
          Alcotest.test_case "printing" `Quick test_value_pp;
          Alcotest.test_case "sorted union" `Quick test_value_union_sorted;
        ] );
      ( "domain",
        [
          Alcotest.test_case "finite" `Quick test_domain_finite;
          Alcotest.test_case "finite too small" `Quick test_domain_finite_too_small;
          Alcotest.test_case "infinite" `Quick test_domain_infinite;
        ] );
      ( "schema",
        [
          Alcotest.test_case "lookup" `Quick test_schema_lookup;
          Alcotest.test_case "duplicates" `Quick test_schema_duplicates;
        ] );
      ( "tuple",
        [
          Alcotest.test_case "basics" `Quick test_tuple_basics;
          Alcotest.test_case "conformance" `Quick test_tuple_conforms;
          Alcotest.test_case "compare allocates nothing" `Quick
            test_tuple_compare_allocates_nothing;
        ] );
      ( "relation",
        [
          Alcotest.test_case "set semantics" `Quick test_relation_set_semantics;
          Alcotest.test_case "algebra" `Quick test_relation_algebra;
          Alcotest.test_case "arity mismatch" `Quick test_relation_arity_mismatch;
          Alcotest.test_case "values from two domains" `Quick test_values_two_domains;
          Alcotest.test_case "first values costs its own cells" `Quick test_values_no_cliff;
        ] );
      ( "builder",
        [
          Alcotest.test_case "matches of_tuples" `Quick test_builder_matches_of_tuples;
          Alcotest.test_case "large block sorted" `Quick test_builder_large_block_sorted;
          Alcotest.test_case "arity mismatch" `Quick test_builder_arity_mismatch;
          Alcotest.test_case "intern reserve" `Quick test_intern_reserve;
        ] );
      ( "database",
        [
          Alcotest.test_case "basics" `Quick test_database_basics;
          Alcotest.test_case "conformance" `Quick test_database_conformance;
          Alcotest.test_case "union" `Quick test_database_union;
        ] );
      ("properties", properties);
    ]

(* Tests for the constraint-mining subsystem: canonicalisation,
   kernel-vs-naive scoring agreement, the accept/cover pipeline, its
   budget behaviour, the .ric round trip of mined blocks, the RCDP
   cross-check, the plan-memo eviction counter, and the ricd [mine] op
   (protocol + service, caching, insert invalidation, and the retired
   [workers] wire field accepted and ignored).

   The QCheck differential is the load-bearing one: on random (Dm, D)
   pairs every accepted constraint must actually hold (the naive
   [Containment.holds_all] is the oracle), and with the minimal cover
   disabled the accepted set must equal the brute-force enumerate +
   naive-score acceptance — the compiled kernel path earns no slack. *)

open Ric_relational
open Ric_query
open Ric_constraints
module Enumerate = Ric_mining.Enumerate
module Score = Ric_mining.Score
module Mine = Ric_mining.Mine
module Scenario = Ric_text.Scenario
module Budget = Ric_complete.Budget
module Json = Ric_text.Json

let v x = Term.Var x

(* The paper's running example, inline (tests run from _build). *)
let crm_source =
  {|
  schema Supt(eid, dept, cid).
  schema Cust(cid, name, cc, ac, phn).
  master DCust(cid, name, ac, phn).
  rows DCust {
    (c0, alice, 908, p0)
    (c1, bob,   212, p1)
    (c2, carol, 908, p2)
  }.
  rows Cust {
    (c0, alice, "01", 908, p0)
    (c1, bob,   "01", 212, p1)
  }.
  rows Supt {
    (e0, d0, c0)
    (e0, d0, c1)
  }.
  query Q2(c) :- Supt("e0", d, c).
  query Q0(c, n) :- Cust(c, n, "01", 908, p).
|}

let crm () = Scenario.parse crm_source

let mine ?config ?budget (s : Scenario.t) =
  Mine.run ?config ?budget ~db_schema:s.Scenario.db_schema
    ~master_schema:s.Scenario.master_schema ~db:s.Scenario.db
    ~master:s.Scenario.master ()

(* ------------------------------------------------------------------ *)
(* Canonicalisation *)

let test_canonical_key_alpha () =
  let k1 =
    Enumerate.canonical_key ~head:[ v "a" ]
      ~atoms:[ Atom.make "R" [ v "a"; v "b" ] ]
      ~neqs:[] ~rhs:(Projection.proj "M" [ 0 ])
  in
  let k2 =
    Enumerate.canonical_key ~head:[ v "x" ]
      ~atoms:[ Atom.make "R" [ v "x"; v "y" ] ]
      ~neqs:[] ~rhs:(Projection.proj "M" [ 0 ])
  in
  Alcotest.(check string) "alpha-equivalent bodies collide" k1 k2;
  let k3 =
    Enumerate.canonical_key ~head:[ v "x" ]
      ~atoms:[ Atom.make "R" [ v "y"; v "x" ] ]
      ~neqs:[] ~rhs:(Projection.proj "M" [ 0 ])
  in
  Alcotest.(check bool) "column swap is distinct" false (k1 = k3)

let test_canonical_key_atom_order () =
  let a1 = Atom.make "R" [ v "x"; v "y" ] in
  let a2 = Atom.make "S" [ v "y"; v "z" ] in
  let k12 =
    Enumerate.canonical_key ~head:[ v "x" ] ~atoms:[ a1; a2 ] ~neqs:[]
      ~rhs:(Projection.proj "M" [ 0 ])
  in
  let k21 =
    Enumerate.canonical_key ~head:[ v "a" ]
      ~atoms:[ Atom.make "S" [ v "b"; v "c" ]; Atom.make "R" [ v "a"; v "b" ] ]
      ~neqs:[]
      ~rhs:(Projection.proj "M" [ 0 ])
  in
  Alcotest.(check string) "atom order is normalised away" k12 k21

let test_enumerate_dedup () =
  let s = crm () in
  let r =
    Enumerate.generate ~db_schema:s.Scenario.db_schema
      ~master_schema:s.Scenario.master_schema ~db:s.Scenario.db ()
  in
  let keys = List.map (fun c -> c.Enumerate.key) r.Enumerate.cands in
  let uniq = List.sort_uniq compare keys in
  Alcotest.(check int) "no duplicate canonical keys" (List.length keys)
    (List.length uniq);
  Alcotest.(check int) "enumerated = kept + duplicates" r.Enumerate.enumerated
    (List.length keys + r.Enumerate.duplicates);
  Alcotest.(check bool) "connected join bodies only" true
    (List.for_all
       (fun c ->
         match c.Enumerate.atoms with
         | [ _ ] | [] -> true
         | atoms ->
           (* every atom shares a variable with some other atom *)
           List.for_all
             (fun a ->
               List.exists
                 (fun b ->
                   a != b
                   && List.exists
                        (fun x -> List.mem x (Atom.vars b))
                        (Atom.vars a))
                 atoms)
             atoms)
       r.Enumerate.cands)

(* ------------------------------------------------------------------ *)
(* Kernel scoring vs the naive reference *)

let test_score_matches_naive () =
  let s = crm () in
  let r =
    Enumerate.generate
      ~config:{ Enumerate.default with Enumerate.max_atoms = 2 }
      ~db_schema:s.Scenario.db_schema ~master_schema:s.Scenario.master_schema
      ~db:s.Scenario.db ()
  in
  let ctx = Score.ctx ~master:s.Scenario.master () in
  List.iter
    (fun c ->
      let k = Score.score ctx ~db:s.Scenario.db c in
      let n = Score.naive_score ~db:s.Scenario.db ~master:s.Scenario.master c in
      if k.Score.support <> n.Score.support then
        Alcotest.failf "support mismatch on %s: kernel %d, naive %d"
          c.Enumerate.key k.Score.support n.Score.support;
      if abs_float (k.Score.confidence -. n.Score.confidence) > 1e-9 then
        Alcotest.failf "confidence mismatch on %s: kernel %f, naive %f"
          c.Enumerate.key k.Score.confidence n.Score.confidence)
    r.Enumerate.cands

(* ------------------------------------------------------------------ *)
(* The mining pipeline on the crm scenario *)

let test_mine_crm_accepts () =
  let s = crm () in
  let r = mine s in
  Alcotest.(check bool) "accepts constraints" true (r.Mine.accepted <> []);
  Alcotest.(check int) "stats.accepted agrees" r.Mine.stats.Mine.accepted
    (List.length r.Mine.accepted);
  Alcotest.(check int) "scored list is parallel" (List.length r.Mine.accepted)
    (List.length r.Mine.accepted_scored);
  Alcotest.(check bool) "no timeout" true (r.Mine.timed_out = None);
  (* every accepted constraint holds on the pair it was mined from *)
  Alcotest.(check bool) "accepted constraints hold" true
    (Containment.holds_all ~db:s.Scenario.db ~master:s.Scenario.master
       (List.map snd r.Mine.accepted));
  (* acceptance is confidence-1.0 only *)
  Alcotest.(check bool) "confidence 1.0 only" true
    (List.for_all (fun sc -> sc.Score.confidence = 1.0) r.Mine.accepted_scored)

let test_minimal_cover_drops_implied () =
  let s = crm () in
  let full = mine ~config:{ Mine.default with Mine.minimal_cover = false } s in
  let covered = mine s in
  Alcotest.(check bool) "cover is smaller" true
    (List.length covered.Mine.accepted < List.length full.Mine.accepted);
  (* the cover is a subset of the full set, by canonical key *)
  let keys r =
    List.map (fun sc -> sc.Score.candidate.Enumerate.key) r.Mine.accepted_scored
  in
  let full_keys = keys full in
  Alcotest.(check bool) "cover ⊆ full" true
    (List.for_all (fun k -> List.mem k full_keys) (keys covered));
  (* a constant-refined inclusion must not survive next to its
     generalisation (the regression the pairwise cover fixes) *)
  let has_constant_inclusion =
    List.exists
      (fun sc ->
        let c = sc.Score.candidate in
        c.Enumerate.family = "inclusion"
        && c.Enumerate.rhs <> Projection.Empty
        && List.exists (fun a -> Atom.constants a <> []) c.Enumerate.atoms)
      covered.Mine.accepted_scored
  in
  Alcotest.(check bool) "constant-refined inclusions are covered" false
    has_constant_inclusion

let test_mine_empty_instance () =
  let s = crm () in
  let empty = Database.empty s.Scenario.db_schema in
  let r = mine { s with Scenario.db = empty } in
  Alcotest.(check int) "nothing accepted" 0 (List.length r.Mine.accepted);
  Alcotest.(check bool) "no timeout" true (r.Mine.timed_out = None)

let test_mine_timeout_partial () =
  let s = crm () in
  let budget = Budget.create ~max_steps:40 () in
  let r = mine ~budget s in
  (match r.Mine.timed_out with
   | Some _ -> ()
   | None -> Alcotest.fail "a 40-step budget must exhaust on crm");
  (* partial results still hold *)
  Alcotest.(check bool) "partial accepted still hold" true
    (Containment.holds_all ~db:s.Scenario.db ~master:s.Scenario.master
       (List.map snd r.Mine.accepted))

(* ------------------------------------------------------------------ *)
(* Round trip: mined block → pp → parse → pp *)

let test_roundtrip_through_parser () =
  let s = crm () in
  let r = mine s in
  let s' = Scenario.with_ccs s r.Mine.accepted in
  let printed = Format.asprintf "%a" Scenario.pp s' in
  let reparsed = Scenario.parse printed in
  Alcotest.(check int) "constraint count survives"
    (List.length r.Mine.accepted)
    (List.length reparsed.Scenario.ccs);
  let printed_again = Format.asprintf "%a" Scenario.pp reparsed in
  Alcotest.(check string) "pp ∘ parse ∘ pp is stable" printed printed_again

(* ------------------------------------------------------------------ *)
(* Cross-check: mined V flips crm's Q2 to Complete *)

let test_cross_check_flips () =
  let s = crm () in
  let r = mine s in
  let rows =
    Mine.cross_check ~db_schema:s.Scenario.db_schema ~db:s.Scenario.db
      ~master:s.Scenario.master ~queries:s.Scenario.queries
      ~mined:r.Mine.accepted ()
  in
  Alcotest.(check int) "one row per query" (List.length s.Scenario.queries)
    (List.length rows);
  let q2 = List.find (fun c -> c.Mine.cq_name = "Q2") rows in
  Alcotest.(check string) "Q2 incomplete under empty V" "Incomplete"
    q2.Mine.before;
  Alcotest.(check string) "Q2 complete under mined V" "Complete" q2.Mine.after;
  Alcotest.(check bool) "Q2 flipped" true q2.Mine.flipped

(* ------------------------------------------------------------------ *)
(* QCheck differential on random (Dm, D) pairs *)

let qcheck_config =
  {
    Mine.default with
    Mine.enum =
      {
        Enumerate.max_atoms = 2;
        max_width = 2;
        max_consts = 2;
        closure_max = 2;
        cap_max = 1;
      };
    minimal_cover = false;
  }

let rand_schema =
  Schema.make
    [
      Schema.relation "S" [ Schema.attribute "a"; Schema.attribute "b" ];
      Schema.relation "T" [ Schema.attribute "a" ];
    ]

let rand_master_schema =
  Schema.make
    [
      Schema.relation "M" [ Schema.attribute "a"; Schema.attribute "b" ];
      Schema.relation "N" [ Schema.attribute "a" ];
    ]

let rand_pair_gen =
  QCheck2.Gen.(
    let rows2 = list_size (int_bound 4) (pair (int_bound 2) (int_bound 2)) in
    let rows1 = list_size (int_bound 3) (int_bound 2) in
    quad rows2 rows1 rows2 rows1)

let db_of (s_rows, t_rows, m_rows, n_rows) =
  let db =
    Database.of_list rand_schema
      [
        ("S", Relation.of_int_rows (List.map (fun (a, b) -> [ a; b ]) s_rows));
        ("T", Relation.of_int_rows (List.map (fun a -> [ a ]) t_rows));
      ]
  in
  let master =
    Database.of_list rand_master_schema
      [
        ("M", Relation.of_int_rows (List.map (fun (a, b) -> [ a; b ]) m_rows));
        ("N", Relation.of_int_rows (List.map (fun a -> [ a ]) n_rows));
      ]
  in
  (db, master)

let prop_accepted_hold =
  QCheck2.Test.make ~name:"every accepted constraint holds (naive oracle)"
    ~count:60 rand_pair_gen (fun rows ->
      let db, master = db_of rows in
      let r =
        Mine.run ~config:qcheck_config ~db_schema:rand_schema
          ~master_schema:rand_master_schema ~db ~master ()
      in
      Containment.holds_all ~db ~master (List.map snd r.Mine.accepted))

let prop_accepted_equals_bruteforce =
  QCheck2.Test.make
    ~name:"accepted set equals brute-force enumerate + naive accept" ~count:60
    rand_pair_gen (fun rows ->
      let db, master = db_of rows in
      let r =
        Mine.run ~config:qcheck_config ~db_schema:rand_schema
          ~master_schema:rand_master_schema ~db ~master ()
      in
      let mined_keys =
        List.sort compare
          (List.map
             (fun sc -> sc.Score.candidate.Enumerate.key)
             r.Mine.accepted_scored)
      in
      let enum =
        Enumerate.generate ~config:qcheck_config.Mine.enum
          ~db_schema:rand_schema ~master_schema:rand_master_schema ~db ()
      in
      let brute_keys =
        List.sort compare
          (List.filter_map
             (fun c ->
               let n = Score.naive_score ~db ~master c in
               if n.Score.support >= 1 && n.Score.confidence >= 1.0 then
                 Some c.Enumerate.key
               else None)
             enum.Enumerate.cands)
      in
      mined_keys = brute_keys)

(* ------------------------------------------------------------------ *)
(* Kernel plan-memo eviction counter *)

let test_memo_eviction_counter () =
  let c = Ric_obs.Metrics.counter "ric_kernel_memo_evictions_total" in
  let before = Ric_obs.Metrics.counter_value c in
  (* more distinct bodies than the 256-entry memo holds *)
  for i = 0 to 299 do
    ignore
      (Kernel.plan_for [ Atom.make ("Mem" ^ string_of_int i) [ v "x" ] ] [])
  done;
  let after = Ric_obs.Metrics.counter_value c in
  Alcotest.(check bool)
    (Printf.sprintf "eviction counter moved (%d -> %d)" before after)
    true (after > before)

(* ------------------------------------------------------------------ *)
(* Protocol + service: the ricd mine op *)

let obj_field k = function Json.Obj fs -> List.assoc_opt k fs | _ -> None

let get k j =
  match obj_field k j with
  | Some x -> x
  | None -> Alcotest.failf "no field %S in %s" k (Json.to_string j)

let get_bool k j =
  match get k j with
  | Json.Bool b -> b
  | _ -> Alcotest.failf "field %S is not a bool" k

let get_int k j =
  match get k j with
  | Json.Int n -> n
  | _ -> Alcotest.failf "field %S is not an int" k

let get_list k j =
  match get k j with
  | Json.List l -> l
  | _ -> Alcotest.failf "field %S is not a list" k

let test_protocol_mine_roundtrip () =
  let open Ric_service in
  List.iter
    (fun req ->
      match Protocol.of_json (Protocol.to_json req) with
      | Ok req' ->
        Alcotest.(check bool) "mine round trips" true (req = req')
      | Error m -> Alcotest.failf "mine failed to decode: %s" m)
    [
      Protocol.Mine
        {
          session = "s1";
          nocache = false;
          timeout_ms = None;
          min_support = None;
          workers = None;
        };
      Protocol.Mine
        {
          session = "s1";
          nocache = true;
          timeout_ms = Some 250;
          min_support = Some 2;
          workers = Some 4;
        };
    ]

let test_service_mine () =
  let open Ric_service in
  let service = Service.create () in
  let opened =
    Service.handle service
      (Protocol.Open { path = None; source = Some crm_source; name = Some "crm" })
  in
  Alcotest.(check bool) "open ok" true (get_bool "ok" opened);
  let sid =
    match get "session" opened with
    | Json.Str s -> s
    | _ -> Alcotest.fail "no session id"
  in
  let mine_req ?(nocache = false) () =
    Protocol.Mine
      { session = sid; nocache; timeout_ms = None; min_support = None; workers = None }
  in
  let first = Service.handle service (mine_req ()) in
  Alcotest.(check bool) "mine ok" true (get_bool "ok" first);
  Alcotest.(check bool) "fresh is uncached" false (get_bool "cached" first);
  let accepted = get_list "accepted" (get "result" first) in
  Alcotest.(check bool) "accepts constraints" true (accepted <> []);
  (* every emitted text line parses back as a scenario constraint *)
  let block =
    String.concat "\n"
      (List.map
         (fun c ->
           match get "text" c with
           | Json.Str s -> s
           | _ -> Alcotest.fail "constraint text missing")
         accepted)
  in
  let reparsed =
    Scenario.parse
      ({|
       schema Supt(eid, dept, cid).
       schema Cust(cid, name, cc, ac, phn).
       master DCust(cid, name, ar, phn).
      |}
      ^ block)
  in
  Alcotest.(check int) "wire block reparses" (List.length accepted)
    (List.length reparsed.Scenario.ccs);
  let second = Service.handle service (mine_req ()) in
  Alcotest.(check bool) "replay is cached" true (get_bool "cached" second);
  (* nocache bypasses without disturbing the stored entry *)
  let bypass = Service.handle service (mine_req ~nocache:true ()) in
  Alcotest.(check bool) "nocache bypasses" false (get_bool "cached" bypass);
  (* an insert moves the epoch and invalidates the mined set *)
  let ins =
    Service.handle service
      (Protocol.Insert
         {
           session = sid;
           rel = "Supt";
           rows = [ [ Value.Str "e1"; Value.Str "d1"; Value.Str "c2" ] ];
         })
  in
  Alcotest.(check bool) "insert ok" true (get_bool "ok" ins);
  let third = Service.handle service (mine_req ()) in
  Alcotest.(check bool) "post-insert is uncached" false (get_bool "cached" third);
  Alcotest.(check int) "post-insert epoch" 1 (get_int "epoch" third)

(* Mining always scores sequentially; a wire [workers] field from an
   older client still decodes, changes nothing in the answer, and is
   served from the same cache entry as a request without it. *)
let test_service_mine_ignores_workers () =
  let open Ric_service in
  let service = Service.create () in
  let opened =
    Service.handle service
      (Protocol.Open { path = None; source = Some crm_source; name = Some "crm" })
  in
  let sid =
    match get "session" opened with
    | Json.Str s -> s
    | _ -> Alcotest.fail "no session id"
  in
  let wire extra =
    let text =
      Printf.sprintf {|{"op":"mine","session":%S%s}|} sid extra
    in
    match Protocol.of_json (Json.of_string text) with
    | Ok req -> Service.handle service req
    | Error m -> Alcotest.failf "%s failed to decode: %s" text m
  in
  let texts r =
    List.map
      (fun c ->
        match get "text" c with
        | Json.Str s -> s
        | _ -> Alcotest.fail "constraint text missing")
      (get_list "accepted" (get "result" r))
  in
  let cold = wire {|,"workers":4,"nocache":true|} in
  Alcotest.(check bool) "workers request ok" true (get_bool "ok" cold);
  Alcotest.(check bool) "nocache is uncached" false (get_bool "cached" cold);
  let plain = wire "" in
  Alcotest.(check bool) "plain request computes" false (get_bool "cached" plain);
  Alcotest.(check (list string)) "same accepted set" (texts plain) (texts cold);
  let warm = wire {|,"workers":4|} in
  Alcotest.(check bool) "served from the plain request's entry" true
    (get_bool "cached" warm);
  Alcotest.(check (list string)) "same cached set" (texts plain) (texts warm)

(* ------------------------------------------------------------------ *)

let properties =
  List.map QCheck_alcotest.to_alcotest
    [ prop_accepted_hold; prop_accepted_equals_bruteforce ]

let () =
  Alcotest.run "mining"
    [
      ( "enumerate",
        [
          Alcotest.test_case "alpha-equivalence" `Quick test_canonical_key_alpha;
          Alcotest.test_case "atom order" `Quick test_canonical_key_atom_order;
          Alcotest.test_case "dedup + connectedness" `Quick test_enumerate_dedup;
        ] );
      ( "score",
        [ Alcotest.test_case "kernel = naive" `Quick test_score_matches_naive ] );
      ( "mine",
        [
          Alcotest.test_case "crm accepts" `Quick test_mine_crm_accepts;
          Alcotest.test_case "minimal cover" `Quick test_minimal_cover_drops_implied;
          Alcotest.test_case "empty instance" `Quick test_mine_empty_instance;
          Alcotest.test_case "budget timeout" `Quick test_mine_timeout_partial;
          Alcotest.test_case "round trip" `Quick test_roundtrip_through_parser;
          Alcotest.test_case "cross-check flip" `Quick test_cross_check_flips;
        ] );
      ( "observability",
        [ Alcotest.test_case "memo evictions" `Quick test_memo_eviction_counter ] );
      ( "service",
        [
          Alcotest.test_case "protocol round trip" `Quick test_protocol_mine_roundtrip;
          Alcotest.test_case "mine op lifecycle" `Quick test_service_mine;
          Alcotest.test_case "mine workers field ignored" `Quick
            test_service_mine_ignores_workers;
        ] );
      ("properties", properties);
    ]

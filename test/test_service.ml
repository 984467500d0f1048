(* Tests for the ricd service subsystem: wire protocol encoding and
   framing, the session registry + verdict cache
   behind Service.handle, and a full client/server round trip over a
   Unix-domain socket with concurrent sessions. *)

open Ric_service
module Json = Ric_text.Json

(* ------------------------------------------------------------------ *)
(* JSON response plumbing *)

let obj_field k = function Json.Obj fs -> List.assoc_opt k fs | _ -> None

let get k j =
  match obj_field k j with
  | Some v -> v
  | None -> Alcotest.failf "no field %S in %s" k (Json.to_string j)

let get_bool k j =
  match get k j with
  | Json.Bool b -> b
  | _ -> Alcotest.failf "field %S is not a bool in %s" k (Json.to_string j)

let get_int k j =
  match get k j with
  | Json.Int n -> n
  | _ -> Alcotest.failf "field %S is not an int in %s" k (Json.to_string j)

let get_str k j =
  match get k j with
  | Json.Str s -> s
  | _ -> Alcotest.failf "field %S is not a string in %s" k (Json.to_string j)

let assert_ok j =
  if not (get_bool "ok" j) then Alcotest.failf "request failed: %s" (Json.to_string j)

let verdict_of j = get_str "verdict" (get "result" j)

(* ------------------------------------------------------------------ *)
(* The test scenario: Cust/Supt bounded by master data.  Q and QS are
   incomplete (admissible growth exists), QC is complete (no
   admissible extension can add an alice row). *)

let scenario_source =
  {|
  schema Cust(cid, name).
  schema Supt(eid, cid).
  master DCust(cid, name).
  master DEmp(eid).
  rows Cust { (c0, alice) }.
  rows Supt { (e0, c0) }.
  rows DCust { (c0, alice) (c1, bob) (c2, eve) }.
  rows DEmp { (e0) }.
  query Q(c, n) :- Cust(c, n).
  query QS(e, c) :- Supt(e, c).
  query QC(c) :- Cust(c, "alice").
  constraint BC(c, n) :- Cust(c, n) => DCust[0, 1].
  constraint BS(e) :- Supt(e, c) => DEmp[0].
  constraint BS2(c) :- Supt(e, c) => DCust[0].
|}

let open_req ?name source =
  Protocol.Open { path = None; source = Some source; name }

let rcdp ?(nocache = false) ?timeout_ms ?search ?req_id ?(explain = false)
    session query =
  Protocol.Rcdp { session; query; nocache; timeout_ms; search; req_id; explain }

let rcqp ?(nocache = false) ?timeout_ms ?search ?req_id ?(explain = false)
    session query =
  Protocol.Rcqp { session; query; nocache; timeout_ms; search; req_id; explain }

let audit ?(nocache = false) ?timeout_ms ?search ?req_id ?(explain = false)
    session query =
  Protocol.Audit { session; query; nocache; timeout_ms; search; req_id; explain }

let insert session rel rows =
  Protocol.Insert
    {
      session;
      rel;
      rows = List.map (List.map (fun s -> Ric_relational.Value.Str s)) rows;
    }

let insert_bulk session batches =
  Protocol.Insert_bulk
    {
      session;
      batches =
        List.map
          (fun (rel, rows) ->
            (rel, List.map (List.map (fun s -> Ric_relational.Value.Str s)) rows))
          batches;
    }

(* ------------------------------------------------------------------ *)
(* Protocol: request encode/decode round trip *)

let test_protocol_roundtrip () =
  let reqs =
    [
      Protocol.Ping;
      Protocol.Stats;
      Protocol.Shutdown;
      open_req ~name:"crm" "schema R(a).";
      Protocol.Open { path = Some "scenarios/crm.ric"; source = None; name = None };
      rcdp "s1" "Q0";
      rcdp ~nocache:true "s1" "Q0";
      rcdp ~timeout_ms:250 "s1" "Q0";
      rcdp ~search:"seq" "s1" "Q0";
      rcdp ~req_id:"ric-1-2-3" ~explain:true "s1" "Q0";
      rcqp "s2" "Q";
      rcqp ~req_id:"x" "s2" "Q";
      rcqp ~search:"inc" "s2" "Q";
      audit "s1" "Q2";
      audit ~search:"par:2" "s1" "Q2";
      audit ~req_id:"a-1" ~explain:true "s1" "Q2";
      Protocol.Dump;
      insert "s1" "Cust" [ [ "c1"; "bob" ] ];
      Protocol.Insert
        { session = "s1"; rel = "N"; rows = [ [ Ric_relational.Value.Int 42 ] ] };
      insert_bulk "s1" [ ("Cust", [ [ "c1"; "bob" ]; [ "c2"; "eve" ] ]); ("Supt", [ [ "e0"; "c1" ] ]) ];
      Protocol.Insert_bulk { session = "s1"; batches = [] };
      Protocol.Close { session = "s1" };
    ]
  in
  List.iter
    (fun req ->
      match Protocol.of_json (Protocol.to_json req) with
      | Ok req' ->
        Alcotest.(check bool)
          (Printf.sprintf "%s round trips" (Protocol.op_name req))
          true (req = req')
      | Error m -> Alcotest.failf "%s failed to decode: %s" (Protocol.op_name req) m)
    reqs

let test_protocol_rejects () =
  let bad =
    [
      Json.Int 3;
      Json.Obj [];
      Json.Obj [ ("op", Json.Str "teleport") ];
      Json.Obj [ ("op", Json.Str "rcdp") ];
      Json.Obj [ ("op", Json.Str "rcdp"); ("session", Json.Str "s1") ];
      Json.Obj
        [
          ("op", Json.Str "rcdp");
          ("session", Json.Str "s1");
          ("query", Json.Str "Q0");
          ("search", Json.Str "warp");
        ];
      Json.Obj
        [
          ("op", Json.Str "rcdp");
          ("session", Json.Str "s1");
          ("query", Json.Str "Q0");
          ("search", Json.Str "par:0");
        ];
      Json.Obj
        [
          ("op", Json.Str "rcdp");
          ("session", Json.Str "s1");
          ("query", Json.Str "Q0");
          ("search", Json.Int 4);
        ];
      Json.Obj [ ("op", Json.Str "open") ];
      Json.Obj
        [
          ("op", Json.Str "insert");
          ("session", Json.Str "s1");
          ("rel", Json.Str "R");
          ("rows", Json.Str "nope");
        ];
      Json.Obj
        [
          ("op", Json.Str "insert");
          ("session", Json.Str "s1");
          ("rel", Json.Str "R");
          ("rows", Json.List [ Json.List [ Json.Bool true ] ]);
        ];
    ]
  in
  List.iter
    (fun j ->
      match Protocol.of_json j with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "accepted bad request %s" (Json.to_string j))
    bad

let test_framing () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let payloads = [ "x"; String.make 100_000 'y'; {|{"op":"ping"}|} ] in
  List.iter (Protocol.write_frame a) payloads;
  List.iter
    (fun expected ->
      match Protocol.read_frame b with
      | Some got -> Alcotest.(check string) "frame payload" expected got
      | None -> Alcotest.fail "unexpected EOF")
    payloads;
  Unix.close a;
  (match Protocol.read_frame b with
   | None -> ()
   | Some _ -> Alcotest.fail "expected EOF after close");
  Unix.close b;
  Alcotest.(check bool) "oversized frame refused" true
    (try
       let c, _d = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
       Protocol.write_frame c (String.make (Protocol.max_frame + 1) 'z');
       false
     with Protocol.Frame_error _ -> true)

(* ------------------------------------------------------------------ *)
(* Service: sessions, cache, inserts (no sockets involved) *)

let open_session service =
  let r = Service.handle service (open_req scenario_source) in
  assert_ok r;
  get_str "session" r

let test_service_open_and_errors () =
  let service = Service.create () in
  let r = Service.handle service (open_req scenario_source) in
  assert_ok r;
  Alcotest.(check bool) "partially closed" true (get_bool "partially_closed" r);
  Alcotest.(check int) "constraints counted" 3 (get_int "constraints" r);
  (* parse error carries a position *)
  let bad = Service.handle service (open_req "schema R(a.") in
  Alcotest.(check bool) "open rejects bad source" false (get_bool "ok" bad);
  Alcotest.(check string) "kind" "parse_error" (get_str "kind" bad);
  (* unknown session / unknown query *)
  let r = Service.handle service (rcdp "nope" "Q") in
  Alcotest.(check string) "unknown session" "unknown_session" (get_str "kind" r);
  let sid = open_session service in
  let r = Service.handle service (rcdp sid "Zzz") in
  Alcotest.(check string) "unknown query" "unknown_query" (get_str "kind" r);
  Alcotest.(check bool) "error lists queries" true
    (let m = get_str "error" r in
     let contains hay needle =
       let rec go i =
         i + String.length needle <= String.length hay
         && (String.sub hay i (String.length needle) = needle || go (i + 1))
       in
       go 0
     in
     contains m "QS" && contains m "QC")

let test_service_cache_hit () =
  let service = Service.create () in
  let sid = open_session service in
  let first = Service.handle service (rcdp sid "Q") in
  assert_ok first;
  Alcotest.(check bool) "first is a miss" false (get_bool "cached" first);
  Alcotest.(check string) "Q incomplete" "incomplete" (verdict_of first);
  let second = Service.handle service (rcdp sid "Q") in
  Alcotest.(check bool) "second hits" true (get_bool "cached" second);
  Alcotest.(check string) "same verdict" (Json.to_string (get "result" first))
    (Json.to_string (get "result" second));
  (* nocache bypasses both lookup and store *)
  let third = Service.handle service (rcdp ~nocache:true sid "Q") in
  Alcotest.(check bool) "nocache recomputes" false (get_bool "cached" third)

let test_service_insert_migrates_cache () =
  let service = Service.create () in
  let sid = open_session service in
  let q = Service.handle service (rcdp sid "Q") in
  let qs = Service.handle service (rcdp sid "QS") in
  let qc = Service.handle service (rcdp sid "QC") in
  assert_ok q;
  assert_ok qs;
  assert_ok qc;
  Alcotest.(check string) "Q incomplete" "incomplete" (verdict_of q);
  Alcotest.(check string) "QS incomplete" "incomplete" (verdict_of qs);
  Alcotest.(check string) "QC complete" "complete" (verdict_of qc);
  (* admissible insert: epoch bumps, the cache migrates instead of
     vanishing *)
  let ins = Service.handle service (insert sid "Cust" [ [ "c1"; "bob" ] ]) in
  assert_ok ins;
  Alcotest.(check int) "epoch bumped" 1 (get_int "epoch" ins);
  Alcotest.(check bool) "still closed" true (get_bool "partially_closed" ins);
  let cache = get "cache" ins in
  let carried = get_int "carried" cache
  and revalidated = get_int "revalidated" cache
  and dropped = get_int "dropped" cache in
  (* QC was Complete: monotone carry.  QS's counterexample lives in
     Supt, untouched by a Cust insert: cheap revalidation keeps it.
     Q's counterexample may or may not have been the inserted row. *)
  Alcotest.(check bool) "complete verdict carried" true (carried >= 1);
  Alcotest.(check bool) "incomplete verdict revalidated" true (revalidated >= 1);
  Alcotest.(check int) "all three accounted for" 3 (carried + revalidated + dropped);
  (* the carried entries answer from cache at the new epoch *)
  let qs' = Service.handle service (rcdp sid "QS") in
  Alcotest.(check bool) "QS cached after insert" true (get_bool "cached" qs');
  Alcotest.(check bool) "QS marked revalidated" true (get_bool "revalidated" qs');
  Alcotest.(check int) "QS at new epoch" 1 (get_int "epoch" qs');
  let qc' = Service.handle service (rcdp sid "QC") in
  Alcotest.(check bool) "QC cached after insert" true (get_bool "cached" qc');
  Alcotest.(check string) "QC still complete" "complete" (verdict_of qc')

let test_service_insert_completes_query () =
  (* growing the database to cover all admissible extensions flips the
     fresh verdict to complete *)
  let service = Service.create () in
  let sid = open_session service in
  let q0 = Service.handle service (rcdp sid "Q") in
  Alcotest.(check string) "incomplete at first" "incomplete" (verdict_of q0);
  let ins =
    Service.handle service (insert sid "Cust" [ [ "c1"; "bob" ]; [ "c2"; "eve" ] ])
  in
  assert_ok ins;
  let q1 = Service.handle service (rcdp sid "Q") in
  assert_ok q1;
  (* whatever the cache did, the verdict must now be complete — and if
     it was served from cache it must have been re-proven, which is
     impossible for an incomplete cex once its answer is in D *)
  Alcotest.(check string) "complete after covering inserts" "complete" (verdict_of q1)

let test_service_insert_bulk () =
  let service = Service.create () in
  let sid = open_session service in
  let q0 = Service.handle service (rcdp sid "Q") in
  Alcotest.(check string) "incomplete before" "incomplete" (verdict_of q0);
  let ins =
    Service.handle service
      (insert_bulk sid
         [
           ("Cust", [ [ "c1"; "bob" ] ]);
           ("Cust", [ [ "c2"; "eve" ] ]);
           ("Supt", [ [ "e0"; "c1" ] ]);
         ])
  in
  assert_ok ins;
  Alcotest.(check int) "one epoch bump for the whole batch" 1 (get_int "epoch" ins);
  Alcotest.(check int) "rows counted across batches" 3 (get_int "inserted" ins);
  Alcotest.(check bool) "still partially closed" true (get_bool "partially_closed" ins);
  let q1 = Service.handle service (rcdp sid "Q") in
  Alcotest.(check string) "complete after bulk insert" "complete" (verdict_of q1)

let test_service_insert_bulk_all_or_nothing () =
  let service = Service.create () in
  let sid = open_session service in
  let ins =
    Service.handle service
      (insert_bulk sid [ ("Cust", [ [ "c1"; "bob" ] ]); ("Nope", [ [ "x" ] ]) ])
  in
  Alcotest.(check bool) "rejected" false (get_bool "ok" ins);
  (* the good leading batch rolled back with the bad one: no epoch
     bump, no c1 row *)
  let q = Service.handle service (rcdp sid "Q") in
  assert_ok q;
  Alcotest.(check int) "epoch untouched" 0 (get_int "epoch" q);
  Alcotest.(check string) "still incomplete" "incomplete" (verdict_of q)

let test_service_violating_insert_invalidates () =
  let service = Service.create () in
  let sid = open_session service in
  let q = Service.handle service (rcdp sid "Q") in
  Alcotest.(check string) "incomplete" "incomplete" (verdict_of q);
  (* c9 is not master data: BC breaks *)
  let ins = Service.handle service (insert sid "Cust" [ [ "c9"; "zed" ] ]) in
  assert_ok ins;
  Alcotest.(check bool) "closure lost" false (get_bool "partially_closed" ins);
  Alcotest.(check string) "violated constraint named" "BC"
    (get_str "constraint" (get "violation" ins));
  let cache = get "cache" ins in
  Alcotest.(check int) "nothing carried" 0
    (get_int "carried" cache + get_int "revalidated" cache);
  Alcotest.(check int) "cached verdict invalidated" 1 (get_int "dropped" cache);
  (* the fresh verdict reflects the violation and is not cached *)
  let q' = Service.handle service (rcdp sid "Q") in
  assert_ok q';
  Alcotest.(check bool) "not served from cache" false (get_bool "cached" q');
  Alcotest.(check string) "verdict reflects violation" "not_partially_closed"
    (verdict_of q');
  Alcotest.(check string) "names the constraint" "BC"
    (get_str "constraint" (get "violation" (get "result" q')))

(* The write path delta-checks closure and re-runs the full check only
   to name the violation, so the name is still the declaration-first
   violated constraint: here the first batch breaks BS (e9 is no
   employee) and the second breaks BC, declared before it. *)
let test_service_bulk_violation_named () =
  let service = Service.create () in
  let sid = open_session service in
  let ins =
    Service.handle service
      (insert_bulk sid [ ("Supt", [ [ "e9"; "c0" ] ]); ("Cust", [ [ "c9"; "zed" ] ]) ])
  in
  assert_ok ins;
  Alcotest.(check bool) "closure lost" false (get_bool "partially_closed" ins);
  let v = get "violation" ins in
  Alcotest.(check string) "declaration-first constraint" "BC" (get_str "constraint" v);
  Alcotest.(check string) "its witness" {|["c9","zed"]|} (Json.to_string (get "witness" v))

(* Re-inserting tuples D already holds adds nothing, so the write runs
   no constraint check at all; a new admissible tuple runs one. *)
let test_service_reinsert_no_check () =
  let delta = Ric_obs.Metrics.counter "ric_incremental_delta_checks_total" in
  let full = Ric_obs.Metrics.counter "ric_incremental_full_checks_total" in
  let service = Service.create () in
  let sid = open_session service in
  let checks () = Ric_obs.Metrics.(counter_value delta + counter_value full) in
  let before = checks () and delta0 = Ric_obs.Metrics.counter_value delta in
  let ins =
    Service.handle service
      (insert_bulk sid [ ("Cust", [ [ "c0"; "alice" ] ]); ("Supt", [ [ "e0"; "c0" ] ]) ])
  in
  assert_ok ins;
  Alcotest.(check int) "epoch still bumped" 1 (get_int "epoch" ins);
  Alcotest.(check bool) "still closed" true (get_bool "partially_closed" ins);
  Alcotest.(check int) "no constraint checked" before (checks ());
  assert_ok (Service.handle service (insert sid "Cust" [ [ "c1"; "bob" ] ]));
  Alcotest.(check bool) "a new tuple is delta-checked" true
    (Ric_obs.Metrics.counter_value delta > delta0)

let test_service_rcqp_survives_insert () =
  let service = Service.create () in
  let sid = open_session service in
  let r0 = Service.handle service (rcqp sid "Q") in
  assert_ok r0;
  Alcotest.(check bool) "miss" false (get_bool "cached" r0);
  let _ = Service.handle service (insert sid "Cust" [ [ "c1"; "bob" ] ]) in
  let r1 = Service.handle service (rcqp sid "Q") in
  (* RCQP never reads D: the insert must not evict it *)
  Alcotest.(check bool) "hit across the insert" true (get_bool "cached" r1)

let test_service_audit_cached_and_dropped () =
  let service = Service.create () in
  let sid = open_session service in
  let a0 = Service.handle service (audit sid "Q") in
  assert_ok a0;
  Alcotest.(check string) "completable" "completable" (get_str "audit" (get "result" a0));
  let a1 = Service.handle service (audit sid "Q") in
  Alcotest.(check bool) "audit cached" true (get_bool "cached" a1);
  let _ = Service.handle service (insert sid "Supt" [ [ "e0"; "c1" ] ]) in
  let a2 = Service.handle service (audit sid "Q") in
  (* audits are recomputed after any insert *)
  Alcotest.(check bool) "audit recomputed after insert" false (get_bool "cached" a2)

let test_service_close_purges () =
  let service = Service.create () in
  let sid = open_session service in
  let _ = Service.handle service (rcdp sid "Q") in
  let r = Service.handle service (Protocol.Close { session = sid }) in
  assert_ok r;
  Alcotest.(check bool) "entries purged" true (get_int "purged" r >= 1);
  let r = Service.handle service (rcdp sid "Q") in
  Alcotest.(check string) "session gone" "unknown_session" (get_str "kind" r)

(* Every spelling of the "search" field is accepted for compatibility
   and runs the one sequential search: a par:4 request's reply is the
   seq request's, byte for byte, less its [elapsed_us]. *)
let scenarios_dir () =
  if Sys.file_exists "../../../scenarios" then "../../../scenarios" else "scenarios"

let test_service_search_spellings () =
  let service = Service.create ~root:(scenarios_dir ()) () in
  let o =
    Service.handle service
      (Protocol.Open { path = Some "crm.ric"; source = None; name = None })
  in
  assert_ok o;
  let sid = get_str "session" o in
  let reply req =
    let r = Service.handle service req in
    assert_ok r;
    match r with
    | Json.Obj fields -> Json.to_string (Json.Obj (List.remove_assoc "elapsed_us" fields))
    | j -> Alcotest.failf "reply is not an object: %s" (Json.to_string j)
  in
  List.iter
    (fun query ->
      List.iter
        (fun (name, req) ->
          Alcotest.(check string)
            (Printf.sprintf "%s %s: par:4 reply = seq reply" name query)
            (reply (req "seq")) (reply (req "par:4")))
        [
          ("rcdp", fun search -> rcdp ~nocache:true ~search sid query);
          ("rcqp", fun search -> rcqp ~nocache:true ~search sid query);
          ("audit", fun search -> audit ~nocache:true ~search sid query);
        ])
    [ "Q0"; "Q2" ]

(* [admitted_at] is a monotonic stamp: a request admitted just now with
   a 10 s budget gets a real verdict, not an instant timeout. *)
let test_service_monotonic_admission () =
  let service = Service.create () in
  let sid = open_session service in
  let r =
    Service.handle service ~admitted_at:(Ric_obs.Metrics.now_s ())
      (rcdp ~nocache:true ~timeout_ms:10_000 sid "Q")
  in
  assert_ok r;
  Alcotest.(check string) "a real verdict" "incomplete" (verdict_of r)

(* The stats op's telemetry contract (see protocol.mli): a decimal
   hit_rate string, a metrics array mirroring the registry, and
   counters that are process-lifetime totals — never reset, not even
   by closing the session whose work they counted. *)
let test_service_stats_telemetry () =
  let service = Service.create () in
  let sid = open_session service in
  let stats0 = Service.handle service Protocol.Stats in
  assert_ok stats0;
  let hits0 = get_int "hits" (get "cache" stats0) in
  let misses0 = get_int "misses" (get "cache" stats0) in
  let _ = Service.handle service (rcdp sid "Q") in
  let _ = Service.handle service (rcdp sid "Q") in
  let stats = Service.handle service Protocol.Stats in
  assert_ok stats;
  let cache = get "cache" stats in
  Alcotest.(check int) "one more miss" (misses0 + 1) (get_int "misses" cache);
  Alcotest.(check int) "one more hit" (hits0 + 1) (get_int "hits" cache);
  Alcotest.(check bool) "entry count reported" true (get_int "entries" cache >= 1);
  (* hit_rate is a decimal string recomputed from the running totals *)
  let rate = get_str "hit_rate" cache in
  let expected =
    Printf.sprintf "%.3f"
      (float_of_int (hits0 + 1) /. float_of_int (hits0 + misses0 + 2))
  in
  Alcotest.(check string) "hit_rate from totals" expected rate;
  (* the metrics array mirrors the registry: the cache counters the
     Prometheus socket exposes appear here with the same values *)
  let metric name =
    match get "metrics" stats with
    | Json.List ms ->
      (match
         List.find_opt (fun m -> get_str "name" m = name) ms
       with
       | Some m -> m
       | None -> Alcotest.failf "metric %s missing from stats" name)
    | _ -> Alcotest.fail "metrics is not a list"
  in
  Alcotest.(check bool) "registry hits at least the service's" true
    (get_int "value" (metric "ric_cache_hits_total") >= hits0 + 1);
  (match get "buckets" (metric "ric_op_latency_seconds") with
   | Json.List (_ :: _) -> ()
   | _ -> Alcotest.fail "op latency histogram has no buckets");
  (* never reset: closing the session purges its cache entries but the
     lookup totals survive *)
  let _ = Service.handle service (Protocol.Close { session = sid }) in
  let after = Service.handle service Protocol.Stats in
  let cache' = get "cache" after in
  Alcotest.(check int) "hits survive close" (hits0 + 1) (get_int "hits" cache');
  Alcotest.(check int) "misses survive close" (misses0 + 1) (get_int "misses" cache');
  Alcotest.(check int) "entries purged" 0 (get_int "entries" cache')

let test_service_bad_insert_rejected () =
  let service = Service.create () in
  let sid = open_session service in
  let r = Service.handle service (insert sid "Nope" [ [ "x" ] ]) in
  Alcotest.(check string) "unknown relation" "bad_insert" (get_str "kind" r);
  let r = Service.handle service (insert sid "Cust" [ [ "only-one-cell" ] ]) in
  Alcotest.(check string) "arity mismatch" "bad_insert" (get_str "kind" r);
  (* failed inserts must not bump the epoch *)
  let q = Service.handle service (rcdp sid "Q") in
  Alcotest.(check int) "epoch untouched" 0 (get_int "epoch" q)

(* Explain profiles: the profile rides on the response, attributes the
   budget's steps to named search levels, and never appears — stale or
   otherwise — on an explain:false reply. *)
let test_service_explain_profile () =
  let service = Service.create () in
  let sid = open_session service in
  let r = Service.handle service (rcdp ~explain:true sid "Q") in
  assert_ok r;
  let p = get "profile" r in
  let steps = get_int "steps" p in
  Alcotest.(check bool) "the decide did work" true (steps > 0);
  (* every budget tick on the rcdp path is mirrored into the profile *)
  Alcotest.(check int) "full attribution" steps (get_int "attributed_steps" p);
  let level_steps, counter_steps =
    ( (match get "levels" p with
       | Json.List rows -> List.fold_left (fun a r -> a + get_int "steps" r) 0 rows
       | _ -> Alcotest.fail "levels is not a list"),
      match get "counters" p with
      | Json.Obj fields ->
        List.fold_left
          (fun a (k, v) ->
            let suffix = "_steps" in
            let n = String.length suffix in
            if
              String.length k >= n
              && String.sub k (String.length k - n) n = suffix
            then a + (match v with Json.Int i -> i | _ -> 0)
            else a)
          0 fields
      | _ -> Alcotest.fail "counters is not an object" )
  in
  Alcotest.(check int) "attribution decomposes into levels + *_steps counters"
    (get_int "attributed_steps" p)
    (level_steps + counter_steps);
  (match get "levels" p with
   | Json.List (row :: _) ->
     Alcotest.(check string) "levels name the tableau atoms" "Cust"
       (get_str "atom" row);
     Alcotest.(check string) "and their candidates' source" "BC"
       (get_str "source" row)
   | _ -> Alcotest.fail "no levels in profile");
  (* explain bypasses the cache read: this is never a cached reply *)
  Alcotest.(check bool) "explain recomputes" false (get_bool "cached" r);
  let again = Service.handle service (rcdp ~explain:true sid "Q") in
  Alcotest.(check bool) "explain recomputes every time" false
    (get_bool "cached" again);
  (* plain requests — fresh or cached — carry no profile at all *)
  let plain = Service.handle service (rcdp sid "Q") in
  assert_ok plain;
  Alcotest.(check bool) "no profile without explain" true
    (obj_field "profile" plain = None);
  let cached = Service.handle service (rcdp sid "Q") in
  Alcotest.(check bool) "cached" true (get_bool "cached" cached);
  Alcotest.(check bool) "no profile on cache hits" true
    (obj_field "profile" cached = None);
  (* explain works for the other deciders too *)
  let a = Service.handle service (audit ~explain:true sid "Q") in
  assert_ok a;
  Alcotest.(check bool) "audit profile attributes its steps" true
    (get_int "attributed_steps" (get "profile" a) > 0);
  let rq = Service.handle service (rcqp ~explain:true sid "Q") in
  assert_ok rq;
  let rqp = get "profile" rq in
  Alcotest.(check int) "rcqp full attribution" (get_int "steps" rqp)
    (get_int "attributed_steps" rqp)

let test_service_dump () =
  let service = Service.create () in
  let r = Service.handle service Protocol.Dump in
  Alcotest.(check string) "no path configured" "no_flight_recorder"
    (get_str "kind" r);
  let path = Filename.temp_file "ric_dump" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Service.set_flight_path service path;
      Ric_obs.Recorder.record ~kind:"test" ~req_id:"dump-test" "dump op";
      let r = Service.handle service Protocol.Dump in
      assert_ok r;
      Alcotest.(check string) "echoes the path" path (get_str "path" r);
      Alcotest.(check bool) "counts the events" true (get_int "events" r >= 1);
      let ic = open_in path in
      let n = ref 0 in
      (try
         while true do
           let line = input_line ic in
           incr n;
           match Json.of_string_result line with
           | Ok (Json.Obj _) -> ()
           | _ -> Alcotest.failf "dump line not a JSON object: %s" line
         done
       with End_of_file -> ());
      close_in ic;
      Alcotest.(check int) "file holds what the reply counted"
        (get_int "events" r) !n)

(* ------------------------------------------------------------------ *)
(* End to end over a Unix-domain socket *)

let with_server f =
  let socket_path =
    Printf.sprintf "%s/ric-test-%d-%d.sock"
      (Filename.get_temp_dir_name ())
      (Unix.getpid ()) (Random.int 100000)
  in
  let server =
    Domain.spawn (fun () ->
        Server.run
          {
            Server.socket_path;
            queue_capacity = 16;
            max_connections = 960;
            read_deadline_s = 2.;
            write_deadline_s = 2.;
            root = None;
            journal = None;
            recover = false;
            metrics = None;
            trace = None;
            flight = None;
          })
  in
  let finish () =
    (try
       Client.with_connection ~retries:40 socket_path (fun c ->
           ignore (Client.rpc c Protocol.Shutdown))
     with _ -> ());
    Domain.join server;
    try Unix.unlink socket_path with Unix.Unix_error _ -> ()
  in
  match f socket_path with
  | v ->
    finish ();
    v
  | exception e ->
    finish ();
    raise e

let test_e2e_roundtrip () =
  with_server (fun socket_path ->
      Client.with_connection ~retries:40 socket_path (fun c ->
          let pong = Client.rpc c Protocol.Ping in
          Alcotest.(check bool) "pong" true (get_bool "pong" pong);
          let opened = Client.rpc c (open_req ~name:"e2e" scenario_source) in
          assert_ok opened;
          let sid = get_str "session" opened in
          let first = Client.rpc c (rcdp sid "Q") in
          assert_ok first;
          Alcotest.(check bool) "cold" false (get_bool "cached" first);
          Alcotest.(check string) "incomplete" "incomplete" (verdict_of first);
          Alcotest.(check bool) "timing reported" true (get_int "elapsed_us" first >= 0);
          let second = Client.rpc c (rcdp sid "Q") in
          Alcotest.(check bool) "warm" true (get_bool "cached" second);
          (* a violating insert, then the verdict reflects it *)
          let ins = Client.rpc c (insert sid "Cust" [ [ "c9"; "zed" ] ]) in
          Alcotest.(check bool) "closure lost" false (get_bool "partially_closed" ins);
          let third = Client.rpc c (rcdp sid "Q") in
          Alcotest.(check string) "violation surfaced" "not_partially_closed"
            (verdict_of third);
          let stats = Client.rpc c Protocol.Stats in
          assert_ok stats;
          Alcotest.(check bool) "hits counted" true
            (get_int "hits" (get "cache" stats) >= 1)))

let test_e2e_garbage_request () =
  with_server (fun socket_path ->
      Client.with_connection ~retries:40 socket_path (fun c ->
          let r = Client.request c (Json.Str "not a request") in
          Alcotest.(check bool) "rejected" false (get_bool "ok" r);
          Alcotest.(check string) "kind" "bad_request" (get_str "kind" r);
          (* the connection survives a bad request *)
          let pong = Client.rpc c Protocol.Ping in
          Alcotest.(check bool) "still alive" true (get_bool "pong" pong)))

(* Correlation ids: caller-supplied ids are echoed verbatim on every
   reply (errors included); absent ones are minted — by the client in
   [rpc] ("ric-" prefix), by the server for raw senders ("ricd-"). *)
let test_e2e_req_id () =
  let prefixed ~prefix s =
    String.length s >= String.length prefix
    && String.sub s 0 (String.length prefix) = prefix
  in
  with_server (fun socket_path ->
      Client.with_connection ~retries:40 socket_path (fun c ->
          let r =
            Client.request c
              (Json.Obj [ ("op", Json.Str "ping"); ("req_id", Json.Str "my-req-7") ])
          in
          Alcotest.(check string) "caller id echoed" "my-req-7" (get_str "req_id" r);
          let r = Client.request c (Json.Obj [ ("op", Json.Str "ping") ]) in
          Alcotest.(check bool) "server mints for raw senders" true
            (prefixed ~prefix:"ricd-" (get_str "req_id" r));
          let r = Client.rpc c Protocol.Ping in
          Alcotest.(check bool) "client rpc mints its own" true
            (prefixed ~prefix:"ric-" (get_str "req_id" r));
          let r =
            Client.request c
              (Json.Obj [ ("op", Json.Str "teleport"); ("req_id", Json.Str "bad-1") ])
          in
          Alcotest.(check string) "rejected" "bad_request" (get_str "kind" r);
          Alcotest.(check string) "error replies keep the id" "bad-1"
            (get_str "req_id" r)))

let test_e2e_concurrent_sessions () =
  with_server (fun socket_path ->
      (* two sessions, driven concurrently from two client domains;
         nocache forces every request through the decider, so the
         event loop interleaves the two connections' decides *)
      let sids =
        Client.with_connection ~retries:40 socket_path (fun c ->
            List.map
              (fun name ->
                let r = Client.rpc c (open_req ~name scenario_source) in
                assert_ok r;
                get_str "session" r)
              [ "left"; "right" ])
      in
      let hammer sid () =
        Client.with_connection socket_path (fun c ->
            List.for_all
              (fun _ ->
                List.for_all
                  (fun q ->
                    let r = Client.rpc c (rcdp ~nocache:true sid q) in
                    get_bool "ok" r)
                  [ "Q"; "QS"; "QC" ])
              [ 1; 2; 3 ])
      in
      let clients = List.map (fun sid -> Domain.spawn (hammer sid)) sids in
      let results = List.map Domain.join clients in
      Alcotest.(check (list bool)) "both clients all-ok" [ true; true ] results)

(* ------------------------------------------------------------------ *)
(* Model test: the delta-checked write path against a from-scratch
   oracle.  Random small scenarios — INDs, a two-atom join CC or an FD,
   each from a clean or a dirty start — take random insert and
   insert-bulk sequences, with cached rcdp verdicts read in between.
   After every write the reply's closure status, violation and cache
   migration counts must be what a full re-check derives:
   Containment.first_violation for closure and, for each cached
   counterexample, the re-evaluation the service used to run —
   holds_all over D′ ∪ Δ plus two Lang.eval answer sets.

   After every write, too, a nocache rcdp of every query, with explain
   off and on, runs on the session's checker and the indexes its write
   kept; its verdict and counterexample must be those of a cold
   Rcdp.decide — a fresh checker, the entry closure check, and a copy
   of D whose relations are rebuilt from their tuples, so no cached
   constants or index carry over.  Where the extension space is small
   the verdict must also match the brute-force extension search
   (Rcdp.semi_decide over every extension of as many tuples as the
   query has atoms, with a fresh value per query variable — exact for
   these CQs by Proposition 3.3). *)

module Model = struct
  open Ric_relational
  open Ric_query
  open Ric_constraints
  module Scenario = Ric_text.Scenario
  module Report = Ric_text.Report
  module Rcdp = Ric_complete.Rcdp

  type kind = Ind | Join | Fd

  type write = {
    reads : string list;  (** rcdp requests issued before the write *)
    bulk : bool;
    batches : (string * (string * string) list) list;
  }

  type case = {
    kind : kind;
    dirty : bool;
    m : string list;
    mj : (string * string) list;
    r0 : (string * string) list;
    s0 : (string * string) list;
    writes : write list;
  }

  let queries = [ "QR"; "QJ"; "QB" ]

  (* Master data never admits v4, so a v4 row breaks an IND or the
     join CC; the start rows are filtered clean, or given a violator. *)
  let start c =
    let r0, s0 =
      match c.kind with
      | Ind ->
        ( List.filter (fun (a, _) -> List.mem a c.m) c.r0,
          List.filter (fun (_, x) -> List.mem x c.m) c.s0 )
      | Join ->
        ( c.r0,
          List.filter
            (fun (b, x) ->
              List.for_all (fun (a, b') -> b' <> b || List.mem (a, x) c.mj) c.r0)
            c.s0 )
      | Fd ->
        ( List.fold_left
            (fun acc (a, b) -> if List.mem_assoc a acc then acc else acc @ [ (a, b) ])
            [] c.r0,
          c.s0 )
    in
    if not c.dirty then (r0, s0)
    else
      match c.kind with
      | Ind -> (r0 @ [ ("v4", "v0") ], s0)
      | Join -> (r0 @ [ ("v4", "v0") ], s0 @ [ ("v0", "v4") ])
      | Fd -> (r0 @ [ ("v0", "v0"); ("v0", "v1") ], s0)

  let source c =
    let pairs ps =
      String.concat " " (List.map (fun (x, y) -> Printf.sprintf "(%s, %s)" x y) ps)
    in
    let rows rel = function
      | [] -> ""
      | ps -> Printf.sprintf "rows %s { %s }.\n" rel (pairs ps)
    in
    let r0, s0 = start c in
    String.concat ""
      [
        "schema R(a, b).\nschema S(b, c).\nmaster M(x).\nmaster MJ(x, y).\n";
        Printf.sprintf "rows M { %s }.\n"
          (String.concat " " (List.map (Printf.sprintf "(%s)") c.m));
        rows "MJ" c.mj;
        rows "R" r0;
        rows "S" s0;
        "query QR(a, b) :- R(a, b).\n";
        "query QJ(a, c) :- R(a, b), S(b, c).\n";
        "query QB() :- R(\"v0\", b).\n";
        (match c.kind with
         | Ind ->
           "constraint IR(a) :- R(a, b) => M[0].\nconstraint IS(c) :- S(b, c) => M[0].\n"
         | Join -> "constraint J(a, c) :- R(a, b), S(b, c) => MJ[0, 1].\n"
         | Fd -> "fd F R: a -> b.\n");
      ]

  let print c =
    let batch (rel, ps) =
      rel ^ " " ^ String.concat " " (List.map (fun (x, y) -> x ^ "," ^ y) ps)
    in
    source c
    ^ String.concat ""
        (List.map
           (fun w ->
             Printf.sprintf "read [%s]; %s %s\n" (String.concat " " w.reads)
               (if w.bulk then "insert_bulk" else "insert")
               (String.concat " | " (List.map batch w.batches)))
           c.writes)

  let gen =
    let open QCheck2.Gen in
    let value = frequency [ (12, oneofl [ "v0"; "v1"; "v2"; "v3" ]); (1, return "v4") ] in
    (* mostly diagonal rows, which the constraints admit more often, so
       that many writes land on a closed database *)
    let row = frequency [ (3, map (fun a -> (a, a)) value); (1, pair value value) ] in
    let rows = list_size (int_range 1 3) row in
    let rel = oneofl [ "R"; "S" ] in
    let subset ?(keep = bool) xs =
      map
        (fun keep -> List.filteri (fun i _ -> List.nth keep i) xs)
        (list_repeat (List.length xs) keep)
    in
    let mostly = frequency [ (4, return true); (1, return false) ] in
    let small = [ "v0"; "v1"; "v2"; "v3" ] in
    let write =
      let* reads = subset queries in
      let* bulk = bool in
      let+ batches =
        if bulk then list_size (int_range 2 3) (pair rel rows)
        else map (fun b -> [ b ]) (pair rel rows)
      in
      { reads; bulk; batches }
    in
    let* kind = oneofl [ Ind; Join; Fd ] in
    let* dirty = bool in
    let* m = map (fun xs -> "v0" :: xs) (subset ~keep:mostly [ "v1"; "v2"; "v3" ]) in
    let* mj =
      map (fun xs -> ("v0", "v0") :: xs)
        (subset ~keep:mostly
           (List.concat_map (fun x -> List.map (fun y -> (x, y)) small) small))
    in
    let* r0 = list_size (int_bound 4) row in
    let* s0 = list_size (int_bound 4) row in
    let+ writes = list_size (int_range 1 6) write in
    { kind; dirty; m; mj; r0; s0; writes }

  (* the revalidation the write path ran before it was delta-checked *)
  let revalidate_cex (sc : Scenario.t) ~db (cex : Rcdp.counterexample) q =
    let extended = Database.union db cex.Rcdp.cex_extension in
    Containment.holds_all ~db:extended ~master:sc.Scenario.master (Scenario.all_ccs sc)
    && Relation.mem cex.Rcdp.cex_answer (Lang.eval extended q)
    && not (Relation.mem cex.Rcdp.cex_answer (Lang.eval db q))

  let verdict_json = function
    | Some v -> Json.to_string (Report.rcdp_verdict v)
    | None -> "unsupported"

  (* per query: the atoms of its tableau and its variables *)
  let shape = function
    | "QR" -> (1, 2)
    | "QJ" -> (2, 3)
    | _ -> (1, 1)

  (* [db] with every relation rebuilt from its tuples *)
  let rebuilt db =
    Database.fold
      (fun rel r acc -> Database.set_relation acc rel (Relation.of_tuples (Relation.elements r)))
      db db

  (* Every partially closed extension of at most [atoms] tuples over
     Adom plus one fresh value per variable, searched exhaustively; [None]
     when that space is too large to try here. *)
  let brute_force (sc : Scenario.t) ~db q name =
    let atoms, vars = shape name in
    let values =
      List.length
        (Value.union_sorted (Database.adom db) (Database.adom sc.Scenario.master))
      + 1 + vars
    in
    (* R and S are binary over an infinite domain *)
    let candidates = 2 * values * values in
    if atoms = 2 && candidates > 64 then None
    else
      match
        Rcdp.semi_decide ~max_tuples:atoms ~fresh_values:vars ~schema:sc.Scenario.db_schema
          ~master:sc.Scenario.master ~ccs:(Scenario.all_ccs sc) ~db q
      with
      | Rcdp.Refuted _ -> Some "incomplete"
      | Rcdp.No_counterexample _ -> Some "complete"

  let prop c =
    let fail fmt = QCheck2.Test.fail_reportf fmt in
    let text = source c in
    let sc = Scenario.parse text in
    let ccs = Scenario.all_ccs sc and master = sc.Scenario.master in
    let service = Service.create () in
    let opened = Service.handle service (open_req text) in
    assert_ok opened;
    let sid = get_str "session" opened in
    let first_violation db =
      Option.map
        (fun ((cc : Containment.t), w) -> (cc.Containment.cc_name, w))
        (Containment.first_violation ~db ~master ccs)
    in
    (* a reply's violation and the oracle's, as (name, witness JSON) *)
    let reply_violation r =
      match obj_field "violation" r with
      | Some v -> Some (get_str "constraint" v, Json.to_string (get "witness" v))
      | None -> None
    and oracle_violation =
      Option.map (fun (name, w) -> (name, Json.to_string (Report.tuple w)))
    in
    let db = ref sc.Scenario.db in
    let violation = ref (first_violation !db) in
    if get_bool "partially_closed" opened <> (!violation = None) then
      fail "open: partially_closed disagrees with first_violation";
    let show_violation = function Some (name, w) -> name ^ " " ^ w | None -> "-" in
    if reply_violation opened <> oracle_violation !violation then
      fail "open: violation %s, first_violation %s"
        (show_violation (reply_violation opened))
        (show_violation (oracle_violation !violation));
    if (!violation <> None) <> c.dirty then fail "the start is not as generated";
    (* the rcdp verdicts cached at the current epoch; [None] = unsupported *)
    let cached = ref [] in
    let read q =
      let r = Service.handle service (rcdp sid q) in
      assert_ok r;
      match (!violation, List.assoc_opt q !cached) with
      | Some _, _ ->
        if verdict_of r <> "not_partially_closed" then
          fail "%s: %s on a violated database" q (verdict_of r)
      | None, Some v ->
        if not (get_bool "cached" r) then fail "%s: cached verdict not served" q;
        if Json.to_string (get "result" r) <> verdict_json v && v <> None then
          fail "%s: the cache holds another verdict" q
      | None, None ->
        let v =
          match
            Rcdp.decide ~check_partially_closed:false ~schema:sc.Scenario.db_schema ~master
              ~ccs ~db:!db (List.assoc q sc.Scenario.queries)
          with
          | v -> Some v
          | exception Rcdp.Unsupported _ -> None
        in
        if get_bool "cached" r then fail "%s: a miss served from cache" q;
        if v <> None && Json.to_string (get "result" r) <> verdict_json v then
          fail "%s: fresh verdict %s, oracle %s" q
            (Json.to_string (get "result" r)) (verdict_json v);
        cached := (q, v) :: !cached
    in
    List.iteri
      (fun i w ->
        List.iter read w.reads;
        let rows = List.map (fun (x, y) -> [ x; y ]) in
        let req =
          match w.batches with
          | [ (rel, ps) ] when not w.bulk -> insert sid rel (rows ps)
          | bs -> insert_bulk sid (List.map (fun (rel, ps) -> (rel, rows ps)) bs)
        in
        let r = Service.handle service req in
        assert_ok r;
        (* the oracle: apply, re-check from scratch, migrate *)
        db :=
          List.fold_left
            (fun db (rel, ps) ->
              List.fold_left
                (fun db (x, y) -> Database.add_tuple db rel (Tuple.of_strs [ x; y ]))
                db ps)
            !db w.batches;
        if !violation = None then violation := first_violation !db;
        let outcome (q, v) =
          match v with
          | _ when !violation <> None -> `Dropped
          | Some Rcdp.Complete -> `Carried
          | Some (Rcdp.Incomplete cex)
            when revalidate_cex sc ~db:!db cex (List.assoc q sc.Scenario.queries) ->
            `Revalidated
          | _ -> `Dropped
        in
        let outcomes = List.map (fun e -> (e, outcome e)) !cached in
        let count o = List.length (List.filter (fun (_, o') -> o' = o) outcomes) in
        cached :=
          List.filter_map (fun (e, o) -> if o = `Dropped then None else Some e) outcomes;
        let cache = get "cache" r in
        let got =
          ( get_bool "partially_closed" r,
            reply_violation r,
            ( get_int "carried" cache,
              get_int "revalidated" cache,
              get_int "dropped" cache ) )
        and want =
          ( !violation = None,
            oracle_violation !violation,
            (count `Carried, count `Revalidated, count `Dropped) )
        in
        if got <> want then begin
          let show (closed, v, (c, rv, d)) =
            Printf.sprintf "closed %b, violation %s, carried %d revalidated %d dropped %d"
              closed
              (show_violation v)
              c rv d
          in
          fail "write %d: service %s; oracle %s" i (show got) (show want)
        end;
        (* the nocache decides of this epoch against cold ones *)
        List.iter
          (fun q ->
            let lq = List.assoc q sc.Scenario.queries in
            let want =
              match !violation with
              | Some _ -> `Not_closed
              | None -> (
                let db = rebuilt !db in
                match
                  Rcdp.decide ~schema:sc.Scenario.db_schema ~master ~ccs ~db lq
                with
                | v ->
                  let name = match v with Rcdp.Complete -> "complete" | Rcdp.Incomplete _ -> "incomplete" in
                  (match brute_force sc ~db lq q with
                   | Some bf when bf <> name ->
                     fail "write %d, %s: decide says %s, brute force %s" i q name bf
                   | _ -> ());
                  `Verdict (verdict_json (Some v))
                | exception Rcdp.Unsupported _ -> `Verdict (verdict_json None))
            in
            List.iter
              (fun explain ->
                let r = Service.handle service (rcdp ~nocache:true ~explain sid q) in
                assert_ok r;
                if get_bool "cached" r then fail "write %d, %s: nocache served from cache" i q;
                match want with
                | `Not_closed ->
                  if verdict_of r <> "not_partially_closed" then
                    fail "write %d, %s: %s on a violated database" i q (verdict_of r)
                | `Verdict v ->
                  if v <> "unsupported" && Json.to_string (get "result" r) <> v then
                    fail "write %d, %s (explain %b): service %s, cold decide %s" i q explain
                      (Json.to_string (get "result" r)) v)
              [ false; true ])
          queries)
      c.writes;
    true

  let test =
    QCheck2.Test.make ~name:"delta-checked writes ≡ full re-check oracle" ~count:300
      ~print gen prop

  (* a fixed seed: every run of the suite checks the same cases *)
  let rand = Random.State.make [| 22 |]
end

(* Satellite regression: key components are percent-escaped, so a
   slash inside a query name (or fingerprint) cannot make two distinct
   component lists collide on one cache key.  Pre-fix, both pairs
   below collapsed to the same "s/e0/rcdp/f/a/b"-shaped string. *)
let test_cache_key_escaping () =
  let k1 = Cache.rcdp_key ~session:"s" ~fingerprint:"f" ~epoch:0 ~query:"a/b" in
  let k2 = Cache.rcdp_key ~session:"s" ~fingerprint:"f/a" ~epoch:0 ~query:"b" in
  Alcotest.(check bool) "slash in query vs slash in fingerprint" true (k1 <> k2);
  let k3 = Cache.rcqp_key ~session:"s/e0" ~fingerprint:"f" ~query:"q" in
  let k4 = Cache.rcqp_key ~session:"s" ~fingerprint:"e0/f" ~query:"q" in
  Alcotest.(check bool) "slash in session vs fingerprint" true (k3 <> k4);
  (* escaping is injective: the escape of an already-escaped string
     differs from the escape of the raw one *)
  Alcotest.(check bool) "injective on % sequences" true
    (Cache.escape "a/b" <> Cache.escape "a%2Fb");
  Alcotest.(check string) "clean strings unchanged" "plain" (Cache.escape "plain");
  (* a crafted session name cannot alias another session's purge prefix *)
  let p = Cache.session_prefix ~session:"s1" in
  let k5 = Cache.rcdp_key ~session:"s1/e9" ~fingerprint:"f" ~epoch:0 ~query:"q" in
  let prefixed s ~prefix =
    String.length s >= String.length prefix
    && String.sub s 0 (String.length prefix) = prefix
  in
  Alcotest.(check bool) "slashed session escapes the prefix" false
    (prefixed k5 ~prefix:p)

let () =
  Alcotest.run "service"
    [
      ( "protocol",
        [
          Alcotest.test_case "request round trip" `Quick test_protocol_roundtrip;
          Alcotest.test_case "bad requests rejected" `Quick test_protocol_rejects;
          Alcotest.test_case "framing" `Quick test_framing;
        ] );
      ( "cache keys",
        [ Alcotest.test_case "component escaping" `Quick test_cache_key_escaping ] );
      ( "service",
        [
          Alcotest.test_case "open + errors" `Quick test_service_open_and_errors;
          Alcotest.test_case "verdict cache hit" `Quick test_service_cache_hit;
          Alcotest.test_case "insert migrates cache" `Quick test_service_insert_migrates_cache;
          Alcotest.test_case "insert completes query" `Quick test_service_insert_completes_query;
          Alcotest.test_case "bulk insert" `Quick test_service_insert_bulk;
          Alcotest.test_case "bulk insert all-or-nothing" `Quick
            test_service_insert_bulk_all_or_nothing;
          Alcotest.test_case "violating insert invalidates" `Quick
            test_service_violating_insert_invalidates;
          Alcotest.test_case "bulk violation named" `Quick
            test_service_bulk_violation_named;
          Alcotest.test_case "re-insert runs no check" `Quick
            test_service_reinsert_no_check;
          QCheck_alcotest.to_alcotest ~rand:Model.rand Model.test;
          Alcotest.test_case "rcqp survives insert" `Quick test_service_rcqp_survives_insert;
          Alcotest.test_case "audit cache drops on insert" `Quick
            test_service_audit_cached_and_dropped;
          Alcotest.test_case "close purges" `Quick test_service_close_purges;
          Alcotest.test_case "stats telemetry" `Quick test_service_stats_telemetry;
          Alcotest.test_case "search spellings get the seq reply" `Quick
            test_service_search_spellings;
          Alcotest.test_case "admission stamp is monotonic" `Quick
            test_service_monotonic_admission;
          Alcotest.test_case "bad insert rejected" `Quick test_service_bad_insert_rejected;
          Alcotest.test_case "explain profile" `Quick test_service_explain_profile;
          Alcotest.test_case "flight-recorder dump op" `Quick test_service_dump;
        ] );
      ( "end to end",
        [
          Alcotest.test_case "socket round trip" `Quick test_e2e_roundtrip;
          Alcotest.test_case "garbage request" `Quick test_e2e_garbage_request;
          Alcotest.test_case "req-id correlation" `Quick test_e2e_req_id;
          Alcotest.test_case "concurrent sessions" `Quick test_e2e_concurrent_sessions;
        ] );
    ]

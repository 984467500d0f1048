(* Robustness tests for the ricd service: cooperative deadlines through
   the deciders, fault injection (worker crashes, torn frames, dropped
   replies, injected latency), pool supervision (respawn + quarantine),
   client receive timeouts, and crash recovery from the session
   journal. *)

open Ric_service
open Ric_complete
module Json = Ric_text.Json
module Journal = Ric_text.Journal
module Scenario = Ric_text.Scenario

(* ------------------------------------------------------------------ *)
(* plumbing *)

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

let rec wait_until ?(timeout = 5.0) msg pred =
  if pred () then ()
  else if timeout <= 0. then Alcotest.failf "timed out waiting: %s" msg
  else begin
    Unix.sleepf 0.02;
    wait_until ~timeout:(timeout -. 0.02) msg pred
  end

(* An easy scenario (decides in microseconds) and a hostile one: QH's
   verdict is Complete, but only after the decider exhausts every
   valuation of 8 tableau variables over the active domain — hours of
   work, which is exactly what a deadline must cut short. *)

let easy_source =
  {|
  schema Cust(cid, name).
  master DCust(cid, name).
  rows Cust { (c0, alice) }.
  rows DCust { (c0, alice) (c1, bob) }.
  query Q(c, n) :- Cust(c, n).
  constraint BC(c, n) :- Cust(c, n) => DCust[0, 1].
|}

let hard_source =
  {|
  schema R8(a, b, c, d, e, f, g, h).
  master M(x).
  rows M { (m0) }.
  rows R8 { (m0, v1, v2, v3, v4, v5, v6, v7) }.
  constraint Bound(a) :- R8(a, b, c, d, e, f, g, h) => M[0].
  query QH(a) :- R8(a, b, c, d, e, f, g, h).
|}

let open_req ?name source = Protocol.Open { path = None; source = Some source; name }

let rcdp ?(nocache = false) ?timeout_ms ?search session query =
  Protocol.Rcdp
    { session; query; nocache; timeout_ms; search; req_id = None; explain = false }

let insert session rel rows =
  Protocol.Insert
    {
      session;
      rel;
      rows = List.map (List.map (fun s -> Ric_relational.Value.Str s)) rows;
    }

(* ------------------------------------------------------------------ *)
(* Budget *)

let exhausts f =
  match f () with
  | _ -> Alcotest.fail "expected Budget.Exhausted"
  | exception Budget.Exhausted r -> r

let test_budget_steps () =
  let b = Budget.create ~max_steps:100 () in
  let r = exhausts (fun () -> for _ = 1 to 1000 do Budget.tick b done) in
  Alcotest.(check string) "reason" "step_limit" (Budget.reason_name r);
  Alcotest.(check int) "stopped at the cap" 100 (Budget.steps b)

let test_budget_deadline () =
  let b = Budget.create ~deadline_after:0.01 () in
  Unix.sleepf 0.03;
  let r = exhausts (fun () -> Budget.check_now b) in
  Alcotest.(check string) "reason" "deadline" (Budget.reason_name r)

let test_budget_cancel () =
  let flag = Atomic.make false in
  let b = Budget.create ~cancel:flag () in
  Budget.check_now b;
  (* no raise while unset *)
  Atomic.set flag true;
  let r = exhausts (fun () -> Budget.check_now b) in
  Alcotest.(check string) "reason" "cancelled" (Budget.reason_name r)

let test_budget_unlimited () =
  Alcotest.(check bool) "unlimited" true (Budget.is_unlimited Budget.unlimited);
  for _ = 1 to 10_000 do
    Budget.tick Budget.unlimited
  done;
  Budget.check_now Budget.unlimited

(* ------------------------------------------------------------------ *)
(* the deciders respect the clock *)

let test_rcdp_deadline_aborts_promptly () =
  let sc = Scenario.parse hard_source in
  let q = Option.get (Scenario.find_query sc "QH") in
  let clock = Budget.create ~deadline_after:0.1 () in
  let stats = ref { Rcdp.valuations_visited = 0; branches_pruned = 0 } in
  let t0 = Unix.gettimeofday () in
  let reason =
    exhausts (fun () ->
        Rcdp.decide ~clock ~collect_stats:stats ~schema:sc.Scenario.db_schema
          ~master:sc.Scenario.master ~ccs:(Scenario.all_ccs sc) ~db:sc.Scenario.db q)
  in
  let elapsed = Unix.gettimeofday () -. t0 in
  Alcotest.(check string) "reason" "deadline" (Budget.reason_name reason);
  Alcotest.(check bool)
    (Printf.sprintf "aborted promptly (%.3fs)" elapsed)
    true (elapsed < 2.0);
  Alcotest.(check bool) "work-done counters survive" true
    (!stats.Rcdp.valuations_visited > 0 || Budget.steps clock > 0)

let test_rcqp_deadline_aborts_promptly () =
  let sc = Scenario.parse hard_source in
  let q = Option.get (Scenario.find_query sc "QH") in
  let clock = Budget.create ~deadline_after:0.1 () in
  let t0 = Unix.gettimeofday () in
  (* rcqp on this instance may finish fast (it never reads D) or hit
     the clock — either is fine, but it must not blow the deadline *)
  (try
     ignore
       (Rcqp.decide ~clock ~schema:sc.Scenario.db_schema ~master:sc.Scenario.master
          ~ccs:(Scenario.all_ccs sc) q)
   with Budget.Exhausted _ -> ());
  let elapsed = Unix.gettimeofday () -. t0 in
  Alcotest.(check bool)
    (Printf.sprintf "bounded (%.3fs)" elapsed)
    true (elapsed < 2.0)

(* ------------------------------------------------------------------ *)
(* service-level timeouts *)

let test_service_timeout_verdict () =
  let service = Service.create () in
  let opened = Service.handle service (open_req hard_source) in
  assert_ok opened;
  let sid = get_str "session" opened in
  let t0 = Unix.gettimeofday () in
  let r = Service.handle service (rcdp ~timeout_ms:100 sid "QH") in
  let elapsed = Unix.gettimeofday () -. t0 in
  assert_ok r;
  Alcotest.(check string) "timeout verdict" "timeout" (verdict_of r);
  Alcotest.(check string) "reason" "deadline" (get_str "reason" (get "result" r));
  Alcotest.(check int) "timeout echoed" 100 (get_int "timeout_ms" (get "result" r));
  Alcotest.(check bool) "work reported" true (get_int "steps" (get "result" r) > 0);
  Alcotest.(check bool)
    (Printf.sprintf "well under a second (%.3fs)" elapsed)
    true (elapsed < 1.0);
  (* never cached: the next request computes again (and times out again) *)
  let r2 = Service.handle service (rcdp ~timeout_ms:100 sid "QH") in
  Alcotest.(check bool) "not served from cache" false (get_bool "cached" r2);
  Alcotest.(check string) "times out again" "timeout" (verdict_of r2);
  (* the service keeps serving: an easy session decides normally *)
  let opened2 = Service.handle service (open_req easy_source) in
  assert_ok opened2;
  let sid2 = get_str "session" opened2 in
  let ok_r = Service.handle service (rcdp ~timeout_ms:5000 sid2 "Q") in
  Alcotest.(check string) "easy query decides within its deadline" "incomplete"
    (verdict_of ok_r);
  (* and a successful decide under a deadline is still cacheable *)
  let warm = Service.handle service (rcdp sid2 "Q") in
  Alcotest.(check bool) "cached" true (get_bool "cached" warm);
  let stats = Service.handle service Protocol.Stats in
  Alcotest.(check bool) "timeouts counted" true (get_int "timeouts" stats >= 2)

(* ------------------------------------------------------------------ *)
(* pool supervision *)

let test_pool_survives_job_failure () =
  let served = Atomic.make 0 in
  let pool =
    Pool.create ~domains:1 ~capacity:4
      ~worker:(fun n ->
        if n = 0 then failwith "per-job failure"
        else ignore (Atomic.fetch_and_add served 1))
      ()
  in
  Alcotest.(check bool) "submit bad" true (Pool.submit pool 0);
  Alcotest.(check bool) "submit good" true (Pool.submit pool 1);
  wait_until "good job after failure" (fun () -> Atomic.get served = 1);
  Pool.shutdown pool;
  let s = Pool.stats pool in
  Alcotest.(check int) "failure counted" 1 s.Pool.failures;
  Alcotest.(check int) "no crashes" 0 s.Pool.crashes

let test_pool_crash_respawn_retry () =
  let served = Atomic.make 0 in
  let pool =
    Pool.create ~domains:2 ~capacity:4
      ~worker:(fun (attempt : int Atomic.t) ->
        (* crash the first worker this job lands on; succeed on retry *)
        if Atomic.fetch_and_add attempt 1 = 0 then raise (Pool.Crash "boom")
        else ignore (Atomic.fetch_and_add served 1))
      ()
  in
  Alcotest.(check bool) "submitted" true (Pool.submit pool (Atomic.make 0));
  wait_until "job retried on a fresh worker" (fun () -> Atomic.get served = 1);
  (* the pool still has capacity to serve new jobs afterwards *)
  Alcotest.(check bool) "submitted" true (Pool.submit pool (Atomic.make 1));
  wait_until "later job served" (fun () -> Atomic.get served = 2);
  Pool.shutdown pool;
  let s = Pool.stats pool in
  Alcotest.(check int) "one crash" 1 s.Pool.crashes;
  Alcotest.(check int) "one respawn" 1 s.Pool.respawns;
  Alcotest.(check int) "nothing quarantined" 0 s.Pool.quarantined

let test_pool_quarantines_double_crash () =
  let quarantined = Atomic.make 0 in
  let pool =
    Pool.create
      ~on_quarantine:(fun _job _reason -> ignore (Atomic.fetch_and_add quarantined 1))
      ~domains:2 ~capacity:4
      ~worker:(fun () -> raise (Pool.Crash "always fatal"))
      ()
  in
  Alcotest.(check bool) "submitted" true (Pool.submit pool ());
  wait_until "job quarantined after two crashes" (fun () -> Atomic.get quarantined = 1);
  Pool.shutdown pool;
  let s = Pool.stats pool in
  Alcotest.(check int) "two crashes" 2 s.Pool.crashes;
  Alcotest.(check int) "quarantined once" 1 s.Pool.quarantined;
  Alcotest.(check int) "workers replaced" 2 s.Pool.respawns

(* ------------------------------------------------------------------ *)
(* framing under faults *)

let test_torn_write_detected () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (match Protocol.write_frame ~tear:5 a {|{"ok":true}|} with
   | () -> Alcotest.fail "torn write should raise"
   | exception Protocol.Frame_error _ -> ());
  Unix.close a;
  (* the reader sees a frame that dies mid-payload *)
  (match Protocol.read_frame b with
   | _ -> Alcotest.fail "reader should detect the torn frame"
   | exception Protocol.Frame_error _ -> ());
  Unix.close b

let test_oversized_header_rejected () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let header = Bytes.create 4 in
  Bytes.set_int32_be header 0 (Int32.of_int (Protocol.max_frame + 1));
  ignore (Unix.write a header 0 4);
  (match Protocol.read_frame b with
   | _ -> Alcotest.fail "oversized length must be refused"
   | exception Protocol.Frame_error _ -> ());
  Unix.close a;
  Unix.close b

let test_faults_env_parsing () =
  Unix.putenv "RIC_FAULTS" "tear_write=tear:9, decide=delay:0.001 ,bogus,also=bad";
  Faults.init_from_env ();
  Alcotest.(check (option int)) "tear armed from env" (Some 9) (Faults.tear ());
  Alcotest.(check (option int)) "single shot" None (Faults.tear ());
  Faults.fire "decide";
  (* delay consumed without raising *)
  Faults.reset ();
  Unix.putenv "RIC_FAULTS" ""

(* ------------------------------------------------------------------ *)
(* end to end under faults *)

let with_server ?(domains = 2) ?(queue_capacity = 16) ?(read_deadline = 2.) ?journal
    ?(recover = false) f =
  let socket_path =
    Printf.sprintf "%s/ric-rob-%d-%d.sock"
      (Filename.get_temp_dir_name ())
      (Unix.getpid ()) (Random.int 100000)
  in
  let server =
    Domain.spawn (fun () ->
        Server.run
          {
            Server.socket_path;
            domains;
            queue_capacity;
            max_connections = 960;
            read_deadline_s = read_deadline;
            write_deadline_s = 2.;
            root = None;
            journal;
            recover;
            search = Ric_complete.Search_mode.Seq;
            metrics = None;
            trace = None;
            flight = None;
          })
  in
  let finish () =
    Faults.reset ();
    (try
       Client.with_connection ~retries:40 socket_path (fun c ->
           ignore (Client.rpc c Protocol.Shutdown))
     with _ -> ());
    Domain.join server;
    try Unix.unlink socket_path with Unix.Unix_error _ -> ()
  in
  Faults.reset ();
  match f socket_path with
  | v ->
    finish ();
    v
  | exception e ->
    finish ();
    raise e

let test_e2e_client_receive_timeout () =
  with_server (fun socket_path ->
      Client.with_connection ~retries:40 ~receive_timeout:0.3 socket_path (fun c ->
          let opened = Client.rpc c (open_req easy_source) in
          assert_ok opened;
          let sid = get_str "session" opened in
          Faults.arm "decide" (Faults.Delay 1.5);
          (match Client.rpc c (rcdp ~nocache:true sid "Q") with
           | _ -> Alcotest.fail "expected a client-side timeout"
           | exception Client.Timeout -> ()));
      (* the server survives; a patient client gets an answer *)
      Client.with_connection ~retries:40 socket_path (fun c ->
          let pong = Client.rpc c Protocol.Ping in
          Alcotest.(check bool) "alive after abandoned request" true (get_bool "pong" pong)))

let test_e2e_worker_crash_respawn () =
  with_server ~domains:2 (fun socket_path ->
      Client.with_connection ~retries:40 ~receive_timeout:2.0 socket_path (fun c ->
          Faults.arm "worker" Faults.Crash_worker;
          (* the worker dies holding this request; the pool requeues
             the job to a fresh worker, which answers — a single crash
             is invisible to the client under the event-loop front end *)
          let pong = Client.rpc c Protocol.Ping in
          Alcotest.(check bool) "served after respawn" true (get_bool "pong" pong));
      Client.with_connection ~retries:40 socket_path (fun c ->
          let stats = Client.rpc c Protocol.Stats in
          let workers = get "workers" stats in
          Alcotest.(check int) "crash counted" 1 (get_int "crashes" workers);
          Alcotest.(check int) "respawn counted" 1 (get_int "respawns" workers)))

let test_e2e_double_crash_quarantines () =
  with_server ~domains:2 (fun socket_path ->
      Client.with_connection ~retries:40 ~receive_timeout:2.0 socket_path (fun c ->
          Faults.arm ~times:2 "worker" Faults.Crash_worker;
          (* the request crashes its first worker, is retried, and
             crashes the replacement too: the pool quarantines it and
             the front end answers a structured error, then hangs up *)
          let r = Client.rpc c Protocol.Ping in
          Alcotest.(check bool) "refused" false (get_bool "ok" r);
          Alcotest.(check string) "kind" "worker_crash" (get_str "kind" r));
      Client.with_connection ~retries:40 socket_path (fun c ->
          let stats = Client.rpc c Protocol.Stats in
          let workers = get "workers" stats in
          Alcotest.(check int) "quarantined" 1 (get_int "quarantined" workers);
          Alcotest.(check bool) "daemon survived both crashes" true
            (get_bool "ok" stats)))

let test_e2e_torn_reply () =
  with_server (fun socket_path ->
      Client.with_connection ~retries:40 ~receive_timeout:0.5 socket_path (fun c ->
          Faults.arm "tear_write" (Faults.Tear 5);
          (match Client.rpc c Protocol.Ping with
           | _ -> Alcotest.fail "torn reply should not parse"
           | exception Failure _ -> ()));
      Client.with_connection ~retries:40 socket_path (fun c ->
          let pong = Client.rpc c Protocol.Ping in
          Alcotest.(check bool) "alive after torn frame" true (get_bool "pong" pong)))

let test_e2e_dropped_connection () =
  with_server (fun socket_path ->
      Client.with_connection ~retries:40 ~receive_timeout:0.5 socket_path (fun c ->
          Faults.arm "worker" Faults.Drop;
          (match Client.rpc c Protocol.Ping with
           | _ -> Alcotest.fail "dropped connection should not reply"
           | exception (Failure _ | Unix.Unix_error _) -> ()));
      Client.with_connection ~retries:40 socket_path (fun c ->
          let pong = Client.rpc c Protocol.Ping in
          Alcotest.(check bool) "alive after drop" true (get_bool "pong" pong)))

let test_e2e_timeout_verdict_over_socket () =
  with_server (fun socket_path ->
      Client.with_connection ~retries:40 socket_path (fun c ->
          let opened = Client.rpc c (open_req hard_source) in
          assert_ok opened;
          let sid = get_str "session" opened in
          let t0 = Unix.gettimeofday () in
          let r = Client.rpc c (rcdp ~timeout_ms:100 sid "QH") in
          let elapsed = Unix.gettimeofday () -. t0 in
          assert_ok r;
          Alcotest.(check string) "timeout verdict" "timeout" (verdict_of r);
          Alcotest.(check bool)
            (Printf.sprintf "prompt (%.3fs)" elapsed)
            true (elapsed < 1.0);
          (* the daemon is immediately useful again *)
          let pong = Client.rpc c Protocol.Ping in
          Alcotest.(check bool) "pong" true (get_bool "pong" pong)))

(* ------------------------------------------------------------------ *)
(* overload: admission control, load shedding, slow-loris eviction,
   graceful drain, and the client-side circuit breaker *)

(* raw-socket plumbing: the shed and drain tests need to pipeline
   requests from several connections without blocking on replies,
   which the blocking [Client] cannot do *)
let raw_connect socket_path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX socket_path);
  fd

let raw_reply fd =
  match Protocol.read_frame fd with
  | Some payload -> Json.of_string payload
  | None -> Alcotest.fail "connection closed without a reply"

let ping_payload = Json.to_string (Protocol.to_json Protocol.Ping)

(* [raw_connect] has no startup-retry loop, so make sure the daemon is
   accepting before the raw sockets pile in *)
let wait_ready socket_path =
  Client.with_connection ~retries:40 socket_path (fun c ->
      ignore (Client.rpc c Protocol.Ping))

let test_e2e_queue_full_sheds () =
  with_server ~domains:1 ~queue_capacity:1 (fun socket_path ->
      wait_ready socket_path;
      let s1 = raw_connect socket_path in
      let s2 = raw_connect socket_path in
      let s3 = raw_connect socket_path in
      (* the only worker sleeps on s1's request; s2's fills the
         one-slot queue; s3's finds it full and must be shed *)
      Faults.arm "worker" (Faults.Delay 0.8);
      Protocol.write_frame s1 ping_payload;
      Unix.sleepf 0.3;
      Protocol.write_frame s2 ping_payload;
      Unix.sleepf 0.2;
      Protocol.write_frame s3 ping_payload;
      let r3 = raw_reply s3 in
      Alcotest.(check bool) "shed, not served" false (get_bool "ok" r3);
      Alcotest.(check string) "kind" "overloaded" (get_str "kind" r3);
      (match Protocol.retry_after_ms r3 with
       | Some ms -> Alcotest.(check bool) "positive retry hint" true (ms > 0)
       | None -> Alcotest.fail "shed reply carries no retry_after_ms");
      (* admitted requests are never shed: both get their pong *)
      Alcotest.(check bool) "in-worker request served" true (get_bool "pong" (raw_reply s1));
      Alcotest.(check bool) "queued request served" true (get_bool "pong" (raw_reply s2));
      List.iter Unix.close [ s1; s2; s3 ])

let test_e2e_slow_loris_evicted () =
  with_server ~read_deadline:0.5 (fun socket_path ->
      wait_ready socket_path;
      let loris = raw_connect socket_path in
      (* two header bytes, then silence: a partial frame that dangles *)
      ignore (Unix.write loris (Bytes.make 2 '\000') 0 2);
      (* the event loop is not wedged while the loris dangles *)
      Client.with_connection ~retries:40 socket_path (fun c ->
          let pong = Client.rpc c Protocol.Ping in
          Alcotest.(check bool) "served next to a loris" true (get_bool "pong" pong));
      (* past the read deadline the loris is evicted, not served *)
      Unix.sleepf 1.0;
      (match Unix.read loris (Bytes.create 16) 0 16 with
       | 0 -> ()
       | n -> Alcotest.failf "expected eviction, read %d byte(s)" n
       | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) -> ());
      Unix.close loris;
      (* and the daemon keeps serving afterwards *)
      Client.with_connection ~retries:40 socket_path (fun c ->
          let pong = Client.rpc c Protocol.Ping in
          Alcotest.(check bool) "alive after eviction" true (get_bool "pong" pong)))

let test_e2e_sigterm_drains_queue () =
  with_server ~domains:1 ~queue_capacity:8 (fun socket_path ->
      wait_ready socket_path;
      let s1 = raw_connect socket_path in
      let s2 = raw_connect socket_path in
      let s3 = raw_connect socket_path in
      (* park the only worker on s1's request so s2's and s3's are
         still queued when the signal lands *)
      Faults.arm "worker" (Faults.Delay 0.6);
      Protocol.write_frame s1 ping_payload;
      Unix.sleepf 0.2;
      Protocol.write_frame s2 ping_payload;
      Protocol.write_frame s3 ping_payload;
      Unix.sleepf 0.2;
      Unix.kill (Unix.getpid ()) Sys.sigterm;
      (* graceful drain: every admitted job is answered before exit *)
      List.iter
        (fun fd ->
          Alcotest.(check bool) "answered during drain" true
            (get_bool "pong" (raw_reply fd));
          Unix.close fd)
        [ s1; s2; s3 ])

let test_breaker_opens_and_half_opens () =
  let open Client.Breaker in
  let b = create ~threshold:2 ~cooldown:0.2 () in
  Alcotest.(check bool) "closed admits" true (allow b);
  note_failure b;
  Alcotest.(check bool) "below threshold stays closed" true (allow b);
  note_failure b;
  Alcotest.(check bool) "threshold opens" false (allow b);
  Alcotest.(check bool) "state open" true (state b = Open);
  Unix.sleepf 0.25;
  Alcotest.(check bool) "cooldown elapsed: half-open" true (state b = Half_open);
  Alcotest.(check bool) "one probe admitted" true (allow b);
  Alcotest.(check bool) "second caller waits behind the probe" false (allow b);
  note_failure b;
  Alcotest.(check bool) "failed probe re-opens" false (allow b);
  Alcotest.(check bool) "state open again" true (state b = Open);
  Unix.sleepf 0.25;
  Alcotest.(check bool) "probe again" true (allow b);
  note_success b;
  Alcotest.(check bool) "successful probe closes" true (state b = Closed);
  Alcotest.(check bool) "closed admits again" true (allow b)

let test_e2e_retry_honours_hint () =
  with_server ~domains:1 ~queue_capacity:1 (fun socket_path ->
      wait_ready socket_path;
      let s1 = raw_connect socket_path in
      let s2 = raw_connect socket_path in
      (* saturate: worker parked on s1, queue filled by s2 *)
      Faults.arm "worker" (Faults.Delay 0.6);
      Protocol.write_frame s1 ping_payload;
      Unix.sleepf 0.2;
      Protocol.write_frame s2 ping_payload;
      Unix.sleepf 0.1;
      (* a retrying client is shed at first but succeeds once the
         backlog clears, sleeping at least the server's hint between
         attempts — no exception, a real pong *)
      Client.with_connection ~retries:40 socket_path (fun c ->
          (* a generous threshold: this test is about riding out the
             shed with retries, not about opening the circuit *)
          let breaker = Client.Breaker.create ~threshold:50 () in
          let r = Client.rpc_retrying ~breaker ~max_retries:20 c Protocol.Ping in
          Alcotest.(check bool) "served after retrying" true (get_bool "pong" r);
          Alcotest.(check bool) "breaker stayed closed" true
            (Client.Breaker.state breaker = Client.Breaker.Closed));
      Alcotest.(check bool) "parked request served" true (get_bool "pong" (raw_reply s1));
      Alcotest.(check bool) "queued request served" true (get_bool "pong" (raw_reply s2));
      List.iter Unix.close [ s1; s2 ])

(* ------------------------------------------------------------------ *)
(* journal + crash recovery *)

let test_journal_roundtrip () =
  let entries =
    [
      Journal.Opened { id = "s1"; name = Some "crm"; source = "schema R(a).\nrows R { }." };
      Journal.Inserted
        {
          id = "s1";
          rel = "R";
          rows = [ [ Ric_relational.Value.Str "x"; Ric_relational.Value.Int 7 ] ];
        };
      Journal.Inserted_bulk
        {
          id = "s1";
          batches =
            [
              ("R", [ [ Ric_relational.Value.Str "y"; Ric_relational.Value.Int 8 ] ]);
              ("S", [ [ Ric_relational.Value.Int 1 ]; [ Ric_relational.Value.Int 2 ] ]);
            ];
        };
      Journal.Closed { id = "s1" };
    ]
  in
  List.iter
    (fun e ->
      match Journal.entry_of_json (Journal.json_of_entry e) with
      | Ok e' -> Alcotest.(check bool) "entry round trips" true (e = e')
      | Error m -> Alcotest.failf "decode failed: %s" m)
    entries;
  (* file round trip *)
  let path = Filename.temp_file "ric-journal" ".jsonl" in
  let j = Journal.open_append ~truncate:true path in
  List.iter (Journal.append j) entries;
  Journal.close j;
  let r = Journal.replay_file path in
  Alcotest.(check bool) "entries preserved in order" true (r.Journal.entries = entries);
  Alcotest.(check bool) "no torn tail" false r.Journal.torn_tail;
  Sys.remove path

let test_journal_torn_tail () =
  let path = Filename.temp_file "ric-journal" ".jsonl" in
  let j = Journal.open_append ~truncate:true path in
  Journal.append j (Journal.Opened { id = "s1"; name = None; source = "schema R(a)." });
  Journal.append j (Journal.Closed { id = "s1" });
  Journal.close j;
  (* simulate a crash mid-append *)
  let oc = open_out_gen [ Open_append ] 0o644 path in
  output_string oc {|{"r":"insert","id":"s1","rel|};
  close_out oc;
  let r = Journal.replay_file path in
  Alcotest.(check bool) "torn tail flagged" true r.Journal.torn_tail;
  Alcotest.(check int) "intact prefix replayed" 2 (List.length r.Journal.entries);
  Sys.remove path

let test_service_recovery () =
  let jpath = Filename.temp_file "ric-journal" ".jsonl" in
  (* run 1: two sessions, one insert, one close — then "crash" *)
  let svc1 = Service.create () in
  Service.attach_journal svc1 (Journal.open_append ~truncate:true jpath);
  let o1 = Service.handle svc1 (open_req ~name:"keep" easy_source) in
  assert_ok o1;
  let sid = get_str "session" o1 in
  let cold = Service.handle svc1 (rcdp sid "Q") in
  Alcotest.(check string) "incomplete before crash" "incomplete" (verdict_of cold);
  assert_ok (Service.handle svc1 (insert sid "Cust" [ [ "c1"; "bob" ] ]));
  let o2 = Service.handle svc1 (open_req ~name:"gone" easy_source) in
  assert_ok o2;
  let sid2 = get_str "session" o2 in
  assert_ok (Service.handle svc1 (Protocol.Close { session = sid2 }));
  (* crash: nothing closed cleanly; the tail is torn mid-record *)
  let oc = open_out_gen [ Open_append ] 0o644 jpath in
  output_string oc {|{"r":"open","id":"s9","sour|};
  close_out oc;
  (* run 2: recover *)
  let svc2 = Service.create () in
  let r = Service.recover svc2 jpath in
  Alcotest.(check int) "one session survives" 1 r.Service.sessions_restored;
  Alcotest.(check bool) "torn tail tolerated" true r.Service.torn_tail;
  Alcotest.(check bool) "closed session not retained" true
    (List.for_all
       (function
         | Journal.Opened { id; _ }
         | Journal.Inserted { id; _ }
         | Journal.Inserted_bulk { id; _ } -> id = sid
         | Journal.Closed _ -> false)
       r.Service.retained);
  (* the recovered session answers under its original id, with the
     insert applied (epoch 1) and the verdict recomputed *)
  let q = Service.handle svc2 (rcdp sid "Q") in
  assert_ok q;
  Alcotest.(check int) "epoch restored" 1 (get_int "epoch" q);
  (* the replayed insert made Cust cover everything DCust admits, so
     the verdict flips from the pre-insert "incomplete" to "complete" —
     proof the insert really was replayed *)
  Alcotest.(check string) "verdict reflects the replayed insert" "complete" (verdict_of q);
  (* fresh sessions never collide with recovered ids *)
  let o3 = Service.handle svc2 (open_req easy_source) in
  assert_ok o3;
  Alcotest.(check bool) "id counter advanced past recovered ids" true
    (get_str "session" o3 <> sid && get_str "session" o3 <> sid2);
  Sys.remove jpath

(* Requests written while the retired "inc" search mode existed must
   keep working: a recovered session answers an "inc" request off the
   wire, as the seq search it now is. *)
let test_recovered_inc_request () =
  let jpath = Filename.temp_file "ric-journal" ".jsonl" in
  let svc1 = Service.create () in
  Service.attach_journal svc1 (Journal.open_append ~truncate:true jpath);
  let o = Service.handle svc1 (open_req easy_source) in
  assert_ok o;
  let sid = get_str "session" o in
  assert_ok (Service.handle svc1 (insert sid "Cust" [ [ "c1"; "bob" ] ]));
  let svc2 = Service.create () in
  let (_ : Service.recovery) = Service.recover svc2 jpath in
  let wire =
    match Protocol.to_json (rcdp ~nocache:true sid "Q") with
    | Json.Obj fields -> Json.Obj (("search", Json.Str "inc") :: fields)
    | _ -> Alcotest.fail "a request encodes as an object"
  in
  (match Protocol.of_json wire with
   | Ok (Protocol.Rcdp { search; _ } as req) ->
     Alcotest.(check bool) "inc decodes as seq" true
       (search = Some Ric_complete.Search_mode.Seq);
     let q = Service.handle svc2 req in
     assert_ok q;
     Alcotest.(check string) "verdict reflects the replayed insert" "complete"
       (verdict_of q)
   | Ok _ -> Alcotest.fail "decoded to another request"
   | Error m -> Alcotest.failf "inc request rejected: %s" m);
  Sys.remove jpath

let test_e2e_recover_after_restart () =
  let jpath = Filename.temp_file "ric-journal" ".jsonl" in
  (* first daemon: open + insert, shut down *)
  with_server ~journal:jpath (fun socket_path ->
      Client.with_connection ~retries:40 socket_path (fun c ->
          let opened = Client.rpc c (open_req ~name:"durable" easy_source) in
          assert_ok opened;
          Alcotest.(check string) "first id" "s1" (get_str "session" opened);
          assert_ok (Client.rpc c (insert "s1" "Cust" [ [ "c1"; "bob" ] ]))));
  (* second daemon on the same journal with --recover *)
  with_server ~journal:jpath ~recover:true (fun socket_path ->
      Client.with_connection ~retries:40 socket_path (fun c ->
          let q = Client.rpc c (rcdp "s1" "Q") in
          assert_ok q;
          Alcotest.(check int) "epoch survived the restart" 1 (get_int "epoch" q);
          Alcotest.(check string) "verdict reflects the replayed insert" "complete"
            (verdict_of q)));
  Sys.remove jpath

(* ------------------------------------------------------------------ *)
(* client backoff *)

let test_client_backoff_gives_up () =
  let dead =
    Printf.sprintf "%s/ric-rob-dead-%d.sock"
      (Filename.get_temp_dir_name ())
      (Unix.getpid ())
  in
  (try Unix.unlink dead with Unix.Unix_error _ -> ());
  let t0 = Unix.gettimeofday () in
  (match Client.connect ~retries:3 dead with
   | _ -> Alcotest.fail "connect to a dead socket must fail"
   | exception Unix.Unix_error _ -> ());
  let elapsed = Unix.gettimeofday () -. t0 in
  (* three backoffs at 10/20/40 ms ceilings with >= 50% jitter floor *)
  Alcotest.(check bool)
    (Printf.sprintf "backed off between retries (%.3fs)" elapsed)
    true
    (elapsed >= 0.03 && elapsed < 5.0)

let () =
  Alcotest.run "robustness"
    [
      ( "budget",
        [
          Alcotest.test_case "step limit" `Quick test_budget_steps;
          Alcotest.test_case "deadline" `Quick test_budget_deadline;
          Alcotest.test_case "cancel flag" `Quick test_budget_cancel;
          Alcotest.test_case "unlimited" `Quick test_budget_unlimited;
        ] );
      ( "deadlines",
        [
          Alcotest.test_case "rcdp aborts promptly" `Quick test_rcdp_deadline_aborts_promptly;
          Alcotest.test_case "rcqp stays bounded" `Quick test_rcqp_deadline_aborts_promptly;
          Alcotest.test_case "service timeout verdict" `Quick test_service_timeout_verdict;
        ] );
      ( "pool supervision",
        [
          Alcotest.test_case "job failure survived" `Quick test_pool_survives_job_failure;
          Alcotest.test_case "crash respawns + retries" `Quick test_pool_crash_respawn_retry;
          Alcotest.test_case "double crash quarantines" `Quick
            test_pool_quarantines_double_crash;
        ] );
      ( "framing faults",
        [
          Alcotest.test_case "torn write detected" `Quick test_torn_write_detected;
          Alcotest.test_case "oversized header refused" `Quick test_oversized_header_rejected;
          Alcotest.test_case "RIC_FAULTS parsing" `Quick test_faults_env_parsing;
        ] );
      ( "end to end",
        [
          Alcotest.test_case "client receive timeout" `Quick test_e2e_client_receive_timeout;
          Alcotest.test_case "worker crash + respawn" `Quick test_e2e_worker_crash_respawn;
          Alcotest.test_case "double crash quarantined" `Quick
            test_e2e_double_crash_quarantines;
          Alcotest.test_case "torn reply" `Quick test_e2e_torn_reply;
          Alcotest.test_case "dropped connection" `Quick test_e2e_dropped_connection;
          Alcotest.test_case "timeout verdict over socket" `Quick
            test_e2e_timeout_verdict_over_socket;
        ] );
      ( "overload",
        [
          Alcotest.test_case "queue full sheds with retry hint" `Quick
            test_e2e_queue_full_sheds;
          Alcotest.test_case "slow loris evicted" `Quick test_e2e_slow_loris_evicted;
          Alcotest.test_case "SIGTERM drains the queue" `Quick
            test_e2e_sigterm_drains_queue;
          Alcotest.test_case "breaker opens and half-opens" `Quick
            test_breaker_opens_and_half_opens;
          Alcotest.test_case "retrying client rides out a shed" `Quick
            test_e2e_retry_honours_hint;
        ] );
      ( "crash recovery",
        [
          Alcotest.test_case "journal round trip" `Quick test_journal_roundtrip;
          Alcotest.test_case "torn tail tolerated" `Quick test_journal_torn_tail;
          Alcotest.test_case "service recovery" `Quick test_service_recovery;
          Alcotest.test_case "recovered session serves an inc request" `Quick
            test_recovered_inc_request;
          Alcotest.test_case "daemon restart with --recover" `Quick
            test_e2e_recover_after_restart;
        ] );
      ( "client backoff",
        [ Alcotest.test_case "gives up after retries" `Quick test_client_backoff_gives_up ] );
    ]

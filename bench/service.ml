(* Service benchmarks: what the ricd daemon buys you, measured over a
   real Unix-domain socket.

     cache — cold vs warm verdicts against an in-process server: how
             much does the epoch-keyed verdict cache save on repeated
             RCDP/RCQP requests, and what does an admissible insert
             cost when the old epoch's entries migrate instead of
             recomputing?
     soak  — hundreds of concurrent clients against a forked daemon
             (see below).

   Run `service.exe cache`, `service.exe soak`, or no argument for the
   cache section. *)

open Ric_service
module Json = Ric_text.Json

let hr title =
  Printf.printf "\n%s\n%s\n%s\n" (String.make 72 '=') title (String.make 72 '=')

(* a scenario with enough master data that the RCDP search does real
   work: R is bounded by a 12-row master list, only 2 rows present *)
let scenario_source =
  let ids = List.init 12 (fun i -> Printf.sprintf "(m%d, v%d)" i i) in
  Printf.sprintf
    {|
    schema R(k, w).
    schema S(k, t).
    master M(k, w).
    master N(k).
    rows R { (m0, v0) (m1, v1) }.
    rows S { (m0, a) }.
    rows M { %s }.
    rows N { (m0) (m1) (m2) }.
    query QR(k, w) :- R(k, w).
    query QS(k, t) :- S(k, t).
    query QJ(k) :- R(k, w), S(k, t).
    constraint BR(k, w) :- R(k, w) => M[0, 1].
    constraint BS(k) :- S(k, t) => N[0].
  |}
    (String.concat " " ids)

let with_server f =
  let socket_path =
    Printf.sprintf "%s/ric-bench-%d.sock" (Filename.get_temp_dir_name ()) (Unix.getpid ())
  in
  (try Unix.unlink socket_path with Unix.Unix_error _ -> ());
  let server =
    Domain.spawn (fun () ->
        Server.run
          {
            Server.socket_path;
            queue_capacity = 64;
            max_connections = 960;
            read_deadline_s = 10.;
            write_deadline_s = 10.;
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
    Domain.join server
  in
  match f socket_path with
  | v ->
    finish ();
    v
  | exception e ->
    finish ();
    raise e

let get k j =
  match j with
  | Json.Obj fs -> (
    match List.assoc_opt k fs with
    | Some v -> v
    | None -> failwith (Printf.sprintf "no field %S in %s" k (Json.to_string j)))
  | _ -> failwith "expected an object"

let get_str k j = match get k j with Json.Str s -> s | _ -> failwith "not a string"

let open_session c =
  let r =
    Client.rpc c (Protocol.Open { path = None; source = Some scenario_source; name = None })
  in
  get_str "session" r

let rcdp ?(nocache = false) c session query =
  Client.rpc c
    (Protocol.Rcdp
       {
         session;
         query;
         nocache;
         timeout_ms = None;
         search = None;
         req_id = None;
         explain = false;
       })

(* ------------------------------------------------------------------ *)
(* cache: cold vs warm vs migrated *)

let timed_us f =
  let t0 = Unix.gettimeofday () in
  let x = f () in
  (x, (Unix.gettimeofday () -. t0) *. 1e6)

let median xs =
  let a = List.sort compare xs in
  List.nth a (List.length a / 2)

let bench_cache () =
  hr "verdict cache: cold vs warm (round-trip µs, median of 31)";
  with_server (fun socket_path ->
      Client.with_connection ~retries:40 socket_path (fun c ->
          let warm_reps = 31 in
          Printf.printf "\n%-8s %12s %12s %10s\n" "query" "cold µs" "warm µs" "speedup";
          List.iter
            (fun query ->
              let session = open_session c in
              let _, cold = timed_us (fun () -> rcdp c session query) in
              let warms =
                List.init warm_reps (fun _ -> snd (timed_us (fun () -> rcdp c session query)))
              in
              let warm = median warms in
              Printf.printf "%-8s %12.0f %12.0f %9.1fx\n" query cold warm (cold /. warm))
            [ "QR"; "QS"; "QJ" ];
          (* an admissible insert migrates the cache: the next request
             is still a hit, at the new epoch *)
          let session = open_session c in
          ignore (rcdp c session "QS");
          let ins, ins_us =
            timed_us (fun () ->
                Client.rpc c
                  (Protocol.Insert
                     {
                       session;
                       rel = "R";
                       rows = [ [ Ric_relational.Value.Str "m2"; Ric_relational.Value.Str "v2" ] ];
                     }))
          in
          let after, after_us = timed_us (fun () -> rcdp c session "QS") in
          let cached = match get "cached" after with Json.Bool b -> b | _ -> false in
          Printf.printf
            "\ninsert + cache migration: %.0f µs (%s), next QS request: %.0f µs (%s)\n"
            ins_us
            (Json.to_string (get "cache" ins))
            after_us
            (if cached then "cache hit at new epoch" else "recomputed")))

(* ------------------------------------------------------------------ *)
(* soak: overload-resilient serving under hundreds of concurrent
   clients.

   The daemon runs in a *forked* process — its select loop must own
   its fd table, since hundreds of client sockets opened in the same
   process would push the server-side descriptors past FD_SETSIZE.
   The clients are POSIX threads in this process, each looping mixed
   rcdp/rcqp/mine requests through the shed-aware retry path with its
   own circuit breaker, honouring the server's [retry_after_ms] hints.
   After the load phase the harness reads the daemon's overload
   counters, then pipelines a burst of requests and SIGTERMs the
   daemon mid-flight: a graceful drain must answer every one of them
   before the connection closes, and the process must exit 0.

   Knobs (environment):

     RIC_SOAK_CLIENTS   concurrent client threads   (default 200)
     RIC_SOAK_SECONDS   load duration in seconds    (default 3)
     RIC_SOAK_QUEUE     admission queue capacity    (default 64)
     RIC_SOAK_OUT       also write the JSON record to this path
     RIC_FAULTS         inherited by the forked daemon (chaos mode)

   The section exits nonzero if the daemon dies or exits uncleanly,
   if a drain-phase request goes unanswered, if client-observed shed
   replies exceed the server's shed counter, or — without RIC_FAULTS —
   if any connection drops without a structured reply. *)

let int_env name default =
  match Sys.getenv_opt name with
  | Some s -> (try int_of_string (String.trim s) with _ -> default)
  | None -> default

let float_env name default =
  match Sys.getenv_opt name with
  | Some s -> (try float_of_string (String.trim s) with _ -> default)
  | None -> default

(* one tally per client thread: no sharing, no locks on the hot path *)
type soak_tally = {
  mutable replies : int;  (* structured replies, shed or served *)
  mutable sheds : int;  (* overloaded replies observed (all attempts) *)
  mutable shed_gave_up : int;  (* retry budget exhausted on a shed *)
  mutable timeouts : int;
  mutable circuit_fast_fails : int;
  mutable reconnects : int;
  mutable protocol_failures : int;  (* dropped/garbled, no structured reply *)
  mutable latencies_us : int list;
}

let fresh_tally () =
  {
    replies = 0;
    sheds = 0;
    shed_gave_up = 0;
    timeouts = 0;
    circuit_fast_fails = 0;
    reconnects = 0;
    protocol_failures = 0;
    latencies_us = [];
  }

let soak_worker ~socket_path ~stop ~seed tally =
  let breaker = Client.Breaker.create ~threshold:10 ~cooldown:0.25 () in
  let conn = ref None in
  let session = ref "" in
  (* a shed reply announces that the server may close this connection
     (it does exactly that when refusing at the connection cap), so a
     subsequent EOF/EPIPE here is a clean reconnect, not a protocol
     violation *)
  let shed_on_conn = ref false in
  let drop_conn () =
    (match !conn with Some c -> Client.close c | None -> ());
    conn := None;
    shed_on_conn := false
  in
  let ensure_conn () =
    match !conn with
    | Some c -> c
    | None ->
      let c = Client.connect ~retries:50 ~receive_timeout:10.0 socket_path in
      conn := Some c;
      c
  in
  let mk_request n =
    if n mod 13 = 0 then
      Protocol.Mine
        {
          session = !session;
          nocache = false;
          timeout_ms = Some 1000;
          min_support = None;
          workers = None;
        }
    else if n mod 5 = 0 then
      Protocol.Rcqp
        {
          session = !session;
          query = "QS";
          nocache = false;
          timeout_ms = Some 1000;
          search = None;
          req_id = None;
          explain = false;
        }
    else
      let q = [| "QR"; "QS"; "QJ" |].(n mod 3) in
      Protocol.Rcdp
        {
          session = !session;
          query = q;
          nocache = n mod 4 = 0;
          timeout_ms = Some 1000;
          search = None;
          req_id = None;
          explain = false;
        }
  in
  (* shed-aware retry, counting every overloaded reply: sleep at least
     the server's hint, give up after a few attempts *)
  let rec attempt k c req =
    if not (Client.Breaker.allow breaker) then raise Client.Circuit_open;
    let r = Client.rpc c req in
    match Protocol.retry_after_ms r with
    | None ->
      Client.Breaker.note_success breaker;
      shed_on_conn := false;
      r
    | Some hint_ms ->
      tally.sheds <- tally.sheds + 1;
      shed_on_conn := true;
      Client.Breaker.note_failure breaker;
      if k >= 4 || Atomic.get stop then begin
        tally.shed_gave_up <- tally.shed_gave_up + 1;
        r
      end
      else begin
        Thread.delay ((float_of_int hint_ms /. 1000.) +. (0.001 *. float_of_int (seed mod 7)));
        attempt (k + 1) c req
      end
  in
  let n = ref seed in
  while not (Atomic.get stop) do
    incr n;
    match
      let c = ensure_conn () in
      (* sessions are server-global, not per-connection: open one per
         thread, lazily, through the same shed-aware retry path, and
         reuse it across reconnects *)
      if !session = "" then begin
        let r =
          attempt 0 c
            (Protocol.Open { path = None; source = Some scenario_source; name = None })
        in
        if Protocol.retry_after_ms r = None then session := get_str "session" r
      end;
      if !session = "" then None (* open kept being shed; try next loop *)
      else begin
        let t0 = Unix.gettimeofday () in
        let r = attempt 0 c (mk_request !n) in
        ignore r;
        Some (int_of_float ((Unix.gettimeofday () -. t0) *. 1e6))
      end
    with
    | Some us ->
      tally.replies <- tally.replies + 1;
      tally.latencies_us <- us :: tally.latencies_us
    | None -> ()
    | exception Client.Timeout ->
      tally.timeouts <- tally.timeouts + 1;
      tally.reconnects <- tally.reconnects + 1;
      drop_conn ()
    | exception Client.Circuit_open ->
      tally.circuit_fast_fails <- tally.circuit_fast_fails + 1;
      Thread.delay 0.05
    | exception Failure _ ->
      if not !shed_on_conn then
        tally.protocol_failures <- tally.protocol_failures + 1;
      tally.reconnects <- tally.reconnects + 1;
      drop_conn ()
    | exception Unix.Unix_error _ ->
      if not !shed_on_conn then
        tally.protocol_failures <- tally.protocol_failures + 1;
      tally.reconnects <- tally.reconnects + 1;
      drop_conn ()
  done;
  drop_conn ()

let metric_value name stats =
  match get "metrics" stats with
  | Json.List ms ->
    List.fold_left
      (fun acc m ->
        match m with
        | Json.Obj fs when List.assoc_opt "name" fs = Some (Json.Str name) -> (
          match List.assoc_opt "value" fs with Some (Json.Int n) -> acc + n | _ -> acc)
        | _ -> acc)
      0 ms
  | _ -> 0

let percentile_us sorted p =
  let n = Array.length sorted in
  if n = 0 then 0 else sorted.(min (n - 1) (int_of_float (p *. float_of_int n)))

let bench_soak () =
  let clients = int_env "RIC_SOAK_CLIENTS" 200 in
  let seconds = float_env "RIC_SOAK_SECONDS" 3.0 in
  let queue = int_env "RIC_SOAK_QUEUE" 64 in
  let faults = Option.value (Sys.getenv_opt "RIC_FAULTS") ~default:"" in
  hr
    (Printf.sprintf "soak: %d clients x %.0fs, queue %d%s" clients seconds queue
       (if faults = "" then "" else Printf.sprintf ", faults [%s]" faults));
  let socket_path =
    Printf.sprintf "%s/ric-soak-%d.sock" (Filename.get_temp_dir_name ()) (Unix.getpid ())
  in
  (* the daemon ignores SIGPIPE; this process must too, or a write to
     a connection the server refused at its cap kills the whole soak *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  (try Unix.unlink socket_path with Unix.Unix_error _ -> ());
  (* the child inherits stdio buffers: flush so the banner above is not
     printed twice *)
  flush stdout;
  flush stderr;
  let server_pid = Unix.fork () in
  if server_pid = 0 then begin
    (* the daemon: its own process, its own fd table *)
    Server.run
      {
        Server.socket_path;
        queue_capacity = queue;
        max_connections = 960;
        read_deadline_s = 10.;
        write_deadline_s = 10.;
        root = None;
        journal = None;
        recover = false;
        metrics = None;
        trace = None;
        flight = None;
      };
    exit 0
  end;
  let failures = ref [] in
  let fail fmt = Printf.ksprintf (fun m -> failures := m :: !failures) fmt in

  (* -- load phase -------------------------------------------------- *)
  let stop = Atomic.make false in
  let tallies = Array.init clients (fun _ -> fresh_tally ()) in
  let t0 = Unix.gettimeofday () in
  let threads =
    Array.mapi
      (fun i tally ->
        Thread.create (fun () -> soak_worker ~socket_path ~stop ~seed:i tally) ())
      tallies
  in
  Unix.sleepf seconds;
  Atomic.set stop true;
  Array.iter Thread.join threads;
  let elapsed = Unix.gettimeofday () -. t0 in

  let sum f = Array.fold_left (fun acc t -> acc + f t) 0 tallies in
  let replies = sum (fun t -> t.replies) in
  let sheds = sum (fun t -> t.sheds) in
  let shed_gave_up = sum (fun t -> t.shed_gave_up) in
  let timeouts = sum (fun t -> t.timeouts) in
  let circuit_fast_fails = sum (fun t -> t.circuit_fast_fails) in
  let reconnects = sum (fun t -> t.reconnects) in
  let protocol_failures = sum (fun t -> t.protocol_failures) in
  let latencies =
    Array.of_list (Array.fold_left (fun acc t -> List.rev_append t.latencies_us acc) [] tallies)
  in
  Array.sort compare latencies;
  let p50 = percentile_us latencies 0.50 in
  let p99 = percentile_us latencies 0.99 in
  let throughput = float_of_int replies /. elapsed in

  (* -- the daemon's own overload counters --------------------------- *)
  let shed_total, evicted_total =
    match
      Client.with_connection ~retries:40 ~receive_timeout:10.0 socket_path (fun c ->
          Client.rpc c Protocol.Stats)
    with
    | stats ->
      ( metric_value "ric_server_shed_total" stats,
        metric_value "ric_server_evicted_slow_total" stats )
    | exception e ->
      fail "daemon unreachable after the load phase: %s" (Printexc.to_string e);
      (0, 0)
  in

  (* -- graceful drain under SIGTERM --------------------------------- *)
  let drain_expected = 20 in
  let drain_answered = ref 0 in
  (match
     let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
     Unix.connect fd (Unix.ADDR_UNIX socket_path);
     let ping = Json.to_string (Protocol.to_json Protocol.Ping) in
     for _ = 1 to drain_expected do
       Protocol.write_frame fd ping
     done;
     (* let the event loop see the burst, then pull the plug: every
        request must be answered during the drain *)
     Unix.sleepf 0.3;
     Unix.kill server_pid Sys.sigterm;
     (try
        for _ = 1 to drain_expected do
          match Protocol.read_frame fd with
          | Some _ -> incr drain_answered
          | None -> raise Exit
        done
      with Exit | Protocol.Frame_error _ -> ());
     Unix.close fd
   with
   | () -> ()
   | exception e -> fail "drain phase failed: %s" (Printexc.to_string e));
  let clean_exit =
    match Unix.waitpid [] server_pid with
    | _, Unix.WEXITED 0 -> true
    | _, _ -> false
    | exception Unix.Unix_error _ -> false
  in

  (* -- verdicts ------------------------------------------------------ *)
  if not clean_exit then fail "daemon did not exit cleanly after SIGTERM";
  if !drain_answered <> drain_expected then
    fail "drain answered %d of %d pipelined requests" !drain_answered drain_expected;
  if sheds > shed_total then
    fail "clients saw %d shed replies but the server counted only %d" sheds shed_total;
  if faults = "" && protocol_failures > 0 then
    fail "%d connection(s) dropped without a structured reply" protocol_failures;

  let record =
    Printf.sprintf
      {|{"bench":"serve_soak","clients":%d,"seconds":%g,"queue":%d,"faults":%S,"replies":%d,"throughput_rps":%d,"p50_us":%d,"p99_us":%d,"sheds":%d,"shed_gave_up":%d,"shed_total":%d,"evicted_total":%d,"timeouts":%d,"circuit_fast_fails":%d,"reconnects":%d,"protocol_failures":%d,"drain_answered":%d,"drain_expected":%d,"clean_exit":%b}|}
      clients seconds queue faults replies
      (int_of_float throughput) p50 p99 sheds shed_gave_up shed_total evicted_total
      timeouts circuit_fast_fails reconnects protocol_failures !drain_answered
      drain_expected clean_exit
  in
  Printf.printf "\n%-26s %12d\n" "structured replies" replies;
  Printf.printf "%-26s %12.0f\n" "throughput (replies/s)" throughput;
  Printf.printf "%-26s %12.1f\n" "p50 latency (ms)" (float_of_int p50 /. 1000.);
  Printf.printf "%-26s %12.1f\n" "p99 latency (ms)" (float_of_int p99 /. 1000.);
  Printf.printf "%-26s %12d  (server counter: %d; gave up: %d)\n" "shed replies seen" sheds
    shed_total shed_gave_up;
  Printf.printf "%-26s %12d\n" "slow conns evicted" evicted_total;
  Printf.printf "%-26s %12d\n" "client timeouts" timeouts;
  Printf.printf "%-26s %12d\n" "breaker fast-fails" circuit_fast_fails;
  Printf.printf "%-26s %12d\n" "reconnects" reconnects;
  Printf.printf "%-26s %12d\n" "protocol failures" protocol_failures;
  Printf.printf "%-26s %9d/%2d  (clean exit: %b)\n" "drained under SIGTERM" !drain_answered
    drain_expected clean_exit;
  Printf.printf "\n%s\n" record;
  (match Sys.getenv_opt "RIC_SOAK_OUT" with
   | Some path when path <> "" ->
     let oc = open_out path in
     output_string oc record;
     output_char oc '\n';
     close_out oc
   | _ -> ());
  (try Unix.unlink socket_path with Unix.Unix_error _ -> ());
  match List.rev !failures with
  | [] -> Printf.printf "\nsoak: PASS\n"
  | fs ->
    List.iter (fun m -> Printf.eprintf "soak FAIL: %s\n" m) fs;
    exit 1

let () =
  let sections = match Array.to_list Sys.argv with _ :: rest when rest <> [] -> rest | _ -> [ "cache" ] in
  List.iter
    (function
      | "cache" -> bench_cache ()
      | "soak" -> bench_soak ()
      | s ->
        Printf.eprintf "unknown section %S (have: cache, soak)\n" s;
        exit 2)
    sections

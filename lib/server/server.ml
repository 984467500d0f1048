module Json = Ric_text.Json
module Journal = Ric_text.Journal
module Metrics = Ric_obs.Metrics
module Recorder = Ric_obs.Recorder

type config = {
  socket_path : string;
  queue_capacity : int;
  max_connections : int;
  read_deadline_s : float;
  write_deadline_s : float;
  root : string option;
  journal : string option;
  recover : bool;
  metrics : string option;
  trace : string option;
  flight : string option;
}

let default_config =
  {
    socket_path = "/tmp/ricd.sock";
    queue_capacity = 64;
    (* [Unix.select] tops out at FD_SETSIZE (1024) descriptors; leave
       headroom for the listen sockets and stdio *)
    max_connections = 960;
    read_deadline_s = 10.;
    write_deadline_s = 10.;
    root = None;
    journal = None;
    recover = false;
    metrics = None;
    trace = None;
    flight = None;
  }

(* the flight-recorder dump target: configured, or derived from the
   command socket so every daemon has one without any flag *)
let flight_path_of config =
  match config.flight with
  | Some p -> p
  | None -> config.socket_path ^ ".flight.jsonl"

let m_compactions =
  Metrics.counter ~help:"journal compactions performed at recovery"
    "ric_journal_compactions_total"

let m_scrapes =
  Metrics.counter ~help:"Prometheus scrapes served on the metrics socket"
    "ric_metrics_scrapes_total"

let m_shed =
  Metrics.counter ~help:"requests answered with an overloaded shed reply"
    "ric_server_shed_total"

let m_evicted =
  Metrics.counter
    ~help:"connections evicted for blowing a read or write deadline"
    "ric_server_evicted_slow_total"

let m_queue_wait =
  Metrics.histogram
    ~help:"seconds from reading a request frame to starting its handler"
    "ric_server_queue_wait_seconds"

let src = Logs.Src.create "ricd" ~doc:"the ric completeness-checking daemon"

module Log = (val Logs.src_log src : Logs.LOG)

(* The event loop's select timeout: its poll interval on the shutdown
   flag and on read/write deadlines, so both have ~this granularity. *)
let tick_s = 0.1

(* Per-connection cap on parsed frames waiting their turn; at the cap
   the loop stops reading from that connection (backpressure through
   the socket buffer) rather than parsing without bound. *)
let pending_cap = 64

let read_chunk = 65536

(* ------------------------------------------------------------------ *)
(* Connection state, owned by the event loop. *)

type wbuf = { buf : Bytes.t; mutable off : int }

(* A parsed frame waiting its turn: admitted, with the time it was
   read, or shed at read time, with its retry hint.  Both are answered
   in request order. *)
type frame = Admitted of string * float | Shed of int

type conn = {
  fd : Unix.file_descr;
  cid : int;
  mutable rbuf : Bytes.t;
  mutable rlen : int;
  mutable frame_deadline : float option;
      (* armed while a partial frame sits in [rbuf]: the slow-loris
         eviction clock *)
  pending : frame Queue.t;
  wq : wbuf Queue.t;
  mutable wq_progress_at : float;  (* last write progress: the flush clock *)
  mutable close_after_flush : bool;
  mutable eof : bool;  (* stop reading; still flush what is owed *)
  mutable closed : bool;
}

(* ------------------------------------------------------------------ *)
(* Startup helpers (shared with the old blocking front end). *)

(* Refuse to steal the socket from a live daemon, but clear out a
   stale file left by a crashed one. *)
let prepare_socket_path path =
  if Sys.file_exists path then begin
    let probe = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    let live =
      match Unix.connect probe (Unix.ADDR_UNIX path) with
      | () -> true
      | exception Unix.Unix_error _ -> false
    in
    (try Unix.close probe with Unix.Unix_error _ -> ());
    if live then raise (Unix.Unix_error (Unix.EADDRINUSE, "bind", path));
    Log.warn (fun m -> m "removing stale socket file %s" path);
    try Unix.unlink path with Unix.Unix_error _ -> ()
  end

(* SIGUSR1 = "dump the flight recorder".  Same flag-flip discipline as
   shutdown: the handler only sets this; the event loop does the file
   write on its next tick. *)
let dump_requested = Atomic.make false

let install_signal_handlers service =
  match Sys.os_type with
  | "Unix" ->
    Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
    let graceful signal_name _ =
      (* flip the flag only: the event loop notices on its next tick
         and drains — safe in a signal context *)
      ignore signal_name;
      Service.request_shutdown service
    in
    Sys.set_signal Sys.sigterm (Sys.Signal_handle (graceful "SIGTERM"));
    Sys.set_signal Sys.sigint (Sys.Signal_handle (graceful "SIGINT"));
    Sys.set_signal Sys.sigusr1
      (Sys.Signal_handle (fun _ -> Atomic.set dump_requested true))
  | _ -> ()

(* One scrape per connection: drain whatever HTTP request the client
   sent (closing with unread data provokes a RST that curl reports as
   an error), answer with a minimal HTTP/1.0 response carrying the
   registry snapshot, then close.  The short receive timeout keeps a
   silent prober from wedging the event loop. *)
let serve_scrape fd =
  (try Unix.setsockopt_float fd Unix.SO_RCVTIMEO 0.25
   with Unix.Unix_error _ -> ());
  (try ignore (Unix.read fd (Bytes.create 4096) 0 4096)
   with Unix.Unix_error _ -> ());
  let body = Metrics.to_prometheus () in
  let response =
    Printf.sprintf
      "HTTP/1.0 200 OK\r\n\
       Content-Type: text/plain; version=0.0.4; charset=utf-8\r\n\
       Content-Length: %d\r\n\
       Connection: close\r\n\
       \r\n\
       %s"
      (String.length body) body
  in
  (try
     let b = Bytes.unsafe_of_string response in
     let rec write off =
       if off < Bytes.length b then
         write (off + Unix.write fd b off (Bytes.length b - off))
     in
     write 0
   with Unix.Unix_error _ -> ());
  Metrics.incr m_scrapes;
  try Unix.close fd with Unix.Unix_error _ -> ()

let setup_journal service config =
  match config.journal with
  | None ->
    if config.recover then
      Log.warn (fun m -> m "--recover ignored: no journal configured");
    None
  | Some path ->
    let compacting = config.recover && Sys.file_exists path in
    let retained =
      if compacting then begin
        match Service.recover service path with
        | r ->
          Log.app (fun m ->
              m "recovered %d session(s) from %s (%d record(s), %d failed%s)"
                r.Service.sessions_restored path r.Service.entries_replayed
                r.Service.entries_failed
                (if r.Service.torn_tail then ", torn tail discarded" else ""));
          r.Service.retained
        | exception Sys_error msg ->
          Log.err (fun m -> m "cannot recover from %s: %s" path msg);
          []
      end
      else []
    in
    (match Journal.open_append ~truncate:true path with
     | j ->
       List.iter (Journal.append j) retained;
       if compacting then Metrics.incr m_compactions;
       Service.attach_journal service j;
       Some j
     | exception Sys_error msg ->
       Log.err (fun m -> m "cannot open journal %s: %s (running without durability)" path msg);
       None)

(* ------------------------------------------------------------------ *)
(* One request: parse and handle a frame on the event loop.  An
   ordinary exception becomes an error reply; [None] means an injected
   [Drop]: hang up without a reply. *)

let mint_counter = Atomic.make 0

(* server-side correlation fallback: a raw client that sent no req_id
   still gets one, minted here before decode so the typed request (and
   every span, log line and recorder event under it) carries it *)
let mint_req_id () =
  Printf.sprintf "ricd-%d-%d-%d" (Unix.getpid ())
    (int_of_float (Unix.gettimeofday () *. 1e3) land 0xffffff)
    (Atomic.fetch_and_add mint_counter 1)

let run_job service conn payload ~read_at =
  match
    Faults.fire "request";
    Metrics.observe m_queue_wait (Metrics.now_s () -. read_at);
    let t0 = Metrics.now_s () in
    let op, req_id, response =
      match Json.of_string payload with
      | exception Json.Parse_error (msg, line, col) ->
        ( "?",
          None,
          Protocol.error ~kind:"parse_error"
            (Printf.sprintf "request is not JSON: %d:%d: %s" line col msg) )
      | json ->
        let rid =
          match Protocol.req_id_of json with
          | Some rid -> rid
          | None -> mint_req_id ()
        in
        let json = Protocol.with_req_id json rid in
        (match Protocol.of_json json with
         | Error msg -> ("?", Some rid, Protocol.error ~kind:"bad_request" msg)
         | Ok req ->
           Recorder.record ~kind:"request" ~req_id:rid ~conn:conn.cid
             (Protocol.op_name req);
           ( Protocol.op_name req,
             Some rid,
             Service.handle service ~admitted_at:read_at req ))
    in
    let elapsed_us = int_of_float ((Metrics.now_s () -. t0) *. 1e6) in
    Recorder.record ~kind:"reply" ?req_id ~conn:conn.cid
      (Printf.sprintf "op=%s elapsed_us=%d" op elapsed_us);
    Log.info (fun m ->
        m "op=%s conn=%d req_id=%s elapsed_us=%d" op conn.cid
          (Option.value ~default:"-" req_id) elapsed_us);
    (* echo the (possibly minted) id on every reply, errors included;
       [with_req_id] is a no-op when Service.handle already stamped it *)
    let response =
      match req_id with
      | Some rid -> Protocol.with_req_id response rid
      | None -> response
    in
    Json.to_string response
  with
  | response -> Some response
  | exception Faults.Dropped -> None
  | exception e -> Some (Json.to_string (Protocol.error (Printexc.to_string e)))

(* ------------------------------------------------------------------ *)

let dump_flight ~why flight_path =
  match Recorder.dump flight_path with
  | n -> Log.app (fun m -> m "flight recorder (%s): %d event(s) -> %s" why n flight_path)
  | exception Sys_error msg ->
    Log.err (fun m -> m "flight recorder dump to %s failed: %s" flight_path msg)

let run_inner config ~flight_path =
  Faults.init_from_env ();
  (match config.trace with
   | Some path ->
     Ric_obs.Trace.open_file path;
     Log.app (fun m -> m "tracing spans to %s" path)
   | None -> ());
  let service = Service.create ?root:config.root () in
  Service.set_flight_path service flight_path;
  install_signal_handlers service;
  let journal = setup_journal service config in
  prepare_socket_path config.socket_path;
  let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind sock (Unix.ADDR_UNIX config.socket_path);
  Unix.listen sock 128;
  Unix.set_nonblock sock;
  let msock =
    match config.metrics with
    | None -> None
    | Some path ->
      prepare_socket_path path;
      let s = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.bind s (Unix.ADDR_UNIX path);
      Unix.listen s 16;
      Log.app (fun m -> m "metrics socket on %s" path);
      Some (s, path)
  in

  (* -- loop state ------------------------------------------------- *)
  let conns : (Unix.file_descr, conn) Hashtbl.t = Hashtbl.create 64 in
  let capacity = max 1 config.queue_capacity in
  let backlog = ref 0 in  (* admitted frames not yet handled, all conns *)
  let active = Atomic.make 0 in
  let draining = ref false in
  let next_cid = ref 0 in
  Metrics.gauge_fn ~help:"connections the front end is currently holding open"
    "ric_server_connections_active" (fun () -> Atomic.get active);
  Metrics.gauge_fn ~help:"request frames admitted but not yet handled"
    "ric_server_queue_depth" (fun () -> !backlog);

  (* -- event-loop helpers ----------------------------------------- *)
  let close_conn conn =
    if not conn.closed then begin
      conn.closed <- true;
      Queue.iter (function Admitted _ -> decr backlog | Shed _ -> ()) conn.pending;
      Queue.clear conn.pending;
      Hashtbl.remove conns conn.fd;
      Atomic.decr active;
      try Unix.close conn.fd with Unix.Unix_error _ -> ()
    end
  in
  (* a connection dies once nothing more is owed on it: its replies are
     flushed, and (on EOF or drain) none of its frames is left *)
  let maybe_close conn =
    if
      (not conn.closed)
      && Queue.is_empty conn.wq
      && (conn.close_after_flush
         || (conn.eof || !draining) && Queue.is_empty conn.pending)
    then close_conn conn
  in
  let enqueue_reply conn payload =
    if not conn.closed then begin
      match Protocol.frame_bytes payload with
      | buf ->
        (match Faults.tear () with
         | Some n ->
           (* injected torn write: truncate the frame, then hang up *)
           Queue.push { buf = Bytes.sub buf 0 (min n (Bytes.length buf)); off = 0 } conn.wq;
           conn.close_after_flush <- true
         | None -> Queue.push { buf; off = 0 } conn.wq);
        conn.wq_progress_at <- Metrics.now_s ()
      | exception Protocol.Frame_error msg ->
        Log.err (fun m -> m "conn=%d reply unframeable: %s" conn.cid msg);
        close_conn conn
    end
  in
  let protocol_error conn msg =
    enqueue_reply conn (Json.to_string (Protocol.error ~kind:"parse_error" msg));
    conn.close_after_flush <- true;
    conn.eof <- true;
    conn.rlen <- 0
  in
  (* admission control lives here: a frame is admitted when it is read,
     unless the backlog is already at capacity — then it is shed, and
     its [overloaded] reply waits its turn behind the connection's
     admitted frames *)
  let admit conn payload =
    if !backlog < capacity then begin
      incr backlog;
      Queue.push (Admitted (payload, Metrics.now_s ())) conn.pending
    end
    else begin
      Metrics.incr m_shed;
      let retry_after_ms = min 5000 (25 * (!backlog + 1)) in
      Recorder.record ~kind:"shed" ~conn:conn.cid
        (Printf.sprintf "queue full: depth=%d retry_after_ms=%d" !backlog
           retry_after_ms);
      Queue.push (Shed retry_after_ms) conn.pending
    end
  in
  let parse_frames conn =
    let continue = ref true in
    while !continue do
      if conn.rlen >= 4 then begin
        let len = Int32.to_int (Bytes.get_int32_be conn.rbuf 0) in
        if len <= 0 || len > Protocol.max_frame then begin
          protocol_error conn (Printf.sprintf "invalid frame length %d" len);
          continue := false
        end
        else if conn.rlen >= 4 + len then begin
          admit conn (Bytes.sub_string conn.rbuf 4 len);
          let rest = conn.rlen - 4 - len in
          Bytes.blit conn.rbuf (4 + len) conn.rbuf 0 rest;
          conn.rlen <- rest
        end
        else continue := false
      end
      else continue := false
    done;
    (* the slow-loris clock: armed while a partial frame lingers, and
       anchored at the partial frame's first byte (not refreshed by a
       slow drip of subsequent ones) *)
    if conn.rlen = 0 then conn.frame_deadline <- None
    else if conn.frame_deadline = None then
      conn.frame_deadline <- Some (Metrics.now_s () +. config.read_deadline_s)
  in
  let handle_readable conn =
    if (not conn.closed) && not conn.eof then begin
      if Bytes.length conn.rbuf - conn.rlen < read_chunk then begin
        let bigger = Bytes.create (Bytes.length conn.rbuf + read_chunk) in
        Bytes.blit conn.rbuf 0 bigger 0 conn.rlen;
        conn.rbuf <- bigger
      end;
      match Unix.read conn.fd conn.rbuf conn.rlen read_chunk with
      | 0 ->
        conn.eof <- true;
        maybe_close conn
      | n ->
        conn.rlen <- conn.rlen + n;
        parse_frames conn
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
        ()
      | exception Unix.Unix_error _ -> close_conn conn
    end
  in
  let handle_writable conn =
    if not conn.closed then begin
      let progress = ref true in
      while !progress && not (Queue.is_empty conn.wq) do
        let w = Queue.peek conn.wq in
        match Unix.write conn.fd w.buf w.off (Bytes.length w.buf - w.off) with
        | n ->
          w.off <- w.off + n;
          conn.wq_progress_at <- Metrics.now_s ();
          if w.off >= Bytes.length w.buf then ignore (Queue.pop conn.wq)
        | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
          ->
          progress := false
        | exception Unix.Unix_error _ ->
          close_conn conn;
          progress := false
      done;
      maybe_close conn
    end
  in
  (* answer a connection's oldest frame and try to send the reply at
     once, saving the select round trip *)
  let serve_one conn =
    (match Queue.pop conn.pending with
     | Shed retry_after_ms ->
       enqueue_reply conn (Json.to_string (Protocol.overloaded ~retry_after_ms))
     | Admitted (payload, read_at) -> (
       decr backlog;
       match run_job service conn payload ~read_at with
       | Some reply -> enqueue_reply conn reply
       | None ->
         Log.warn (fun m -> m "conn=%d dropped: injected fault" conn.cid);
         close_conn conn));
    handle_writable conn
  in
  let by_cid a b = compare a.cid b.cid in
  let live_conns () = Hashtbl.fold (fun _ c acc -> c :: acc) conns [] in
  (* one frame from each connection that has one, oldest connection
     first; [true] when some connection still has frames left *)
  let serve_pass () =
    let ready =
      List.filter (fun c -> not (Queue.is_empty c.pending)) (live_conns ())
      |> List.sort by_cid
    in
    List.iter (fun c -> if not c.closed then serve_one c) ready;
    List.exists (fun c -> (not c.closed) && not (Queue.is_empty c.pending)) ready
  in
  let register_conn fd =
    Unix.set_nonblock fd;
    incr next_cid;
    let conn =
      {
        fd;
        cid = !next_cid;
        rbuf = Bytes.create read_chunk;
        rlen = 0;
        frame_deadline = None;
        pending = Queue.create ();
        wq = Queue.create ();
        wq_progress_at = Metrics.now_s ();
        close_after_flush = false;
        eof = false;
        closed = false;
      }
    in
    Hashtbl.replace conns fd conn;
    Atomic.incr active;
    (* a client that connected while the loop was busy has usually
       sent its request already: read it now, behind older connections *)
    handle_readable conn
  in
  (* at the connection cap the front end still answers: a best-effort
     overloaded frame on the doomed socket, never a silent RST *)
  let refuse_connection fd =
    Metrics.incr m_shed;
    Recorder.record ~kind:"shed"
      (Printf.sprintf "connection refused at max_connections=%d"
         config.max_connections);
    (try
       Unix.set_nonblock fd;
       let buf =
         Protocol.frame_bytes
           (Json.to_string (Protocol.overloaded ~retry_after_ms:1000))
       in
       ignore (Unix.write fd buf 0 (Bytes.length buf))
     with Unix.Unix_error _ | Protocol.Frame_error _ -> ());
    try Unix.close fd with Unix.Unix_error _ -> ()
  in
  let rec accept_all () =
    match Unix.accept sock with
    | fd, _ ->
      if Atomic.get active >= config.max_connections then refuse_connection fd
      else register_conn fd;
      accept_all ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
      ()
    | exception Unix.Unix_error (Unix.ECONNABORTED, _, _) -> accept_all ()
  in
  let evict_stale () =
    let now = Metrics.now_s () in
    let victims = ref [] in
    Hashtbl.iter
      (fun _ conn ->
        let starved_read =
          (not conn.eof)
          && (match conn.frame_deadline with Some d -> now > d | None -> false)
        in
        let starved_write =
          (not (Queue.is_empty conn.wq))
          && now -. conn.wq_progress_at > config.write_deadline_s
        in
        if starved_read || starved_write then victims := conn :: !victims)
      conns;
    List.iter
      (fun conn ->
        Metrics.incr m_evicted;
        Recorder.record ~kind:"evict" ~conn:conn.cid "deadline blown mid-frame";
        Log.warn (fun m -> m "conn=%d evicted: deadline blown mid-frame" conn.cid);
        close_conn conn)
      !victims
  in

  Log.app (fun m ->
      m "ricd listening on %s (queue %d, max %d conns)" config.socket_path capacity
        config.max_connections);

  (* -- the loop --------------------------------------------------- *)
  let running = ref true in
  let more = ref false in
  while !running do
    if Service.shutdown_requested service && not !draining then begin
      draining := true;
      Log.app (fun m ->
          m "ricd draining: %d connection(s), %d request(s) admitted"
            (Hashtbl.length conns) !backlog);
      (* stop accepting immediately: close and unlink the listen socket
         so new clients get ECONNREFUSED, not a hang *)
      (try Unix.close sock with Unix.Unix_error _ -> ());
      (try Unix.unlink config.socket_path with Unix.Unix_error _ -> ());
      (* a last read: frames that reached the socket while the loop was
         busy are owed an answer too *)
      live_conns () |> List.sort by_cid |> List.iter handle_readable;
      more := true
    end;
    let reads = ref [] in
    if not !draining then begin
      reads := [ sock ];
      match msock with Some (s, _) -> reads := s :: !reads | None -> ()
    end;
    let writes = ref [] in
    Hashtbl.iter
      (fun fd conn ->
        if
          (not conn.eof)
          && (not conn.close_after_flush)
          && (not !draining)
          && Queue.length conn.pending < pending_cap
        then reads := fd :: !reads;
        if not (Queue.is_empty conn.wq) then writes := fd :: !writes)
      conns;
    (match Unix.select !reads !writes [] (if !more then 0. else tick_s) with
     | readable, writable, _ ->
       List.iter
         (fun fd ->
           match Hashtbl.find_opt conns fd with
           | Some conn -> handle_writable conn
           | None -> ())
         writable;
       (* existing connections first, oldest first, so admission
          follows connection age; then the listen sockets *)
       List.filter_map (fun fd -> Hashtbl.find_opt conns fd) readable
       |> List.sort by_cid |> List.iter handle_readable;
       List.iter
         (fun fd ->
           if fd == sock then accept_all ()
           else
             match msock with
             | Some (s, _) when fd == s -> (
               match Unix.accept s with
               | cfd, _ -> serve_scrape cfd
               | exception Unix.Unix_error _ -> ())
             | _ -> ())
         readable
     | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
    more := serve_pass ();
    evict_stale ();
    if Atomic.compare_and_set dump_requested true false then
      dump_flight ~why:"SIGUSR1" flight_path;
    if !draining then begin
      List.iter maybe_close (live_conns ());
      if Hashtbl.length conns = 0 then running := false
    end
  done;

  Log.app (fun m -> m "ricd shutting down");
  (match msock with
   | Some (s, path) ->
     (try Unix.close s with Unix.Unix_error _ -> ());
     (try Unix.unlink path with Unix.Unix_error _ -> ())
   | None -> ());
  (match journal with None -> () | Some j -> Journal.close j);
  match config.trace with Some _ -> Ric_obs.Trace.close () | None -> ()

(* The flight recorder's reason to exist: if the daemon dies on an
   uncaught exception, the last window of traffic goes to disk before
   the process does. *)
let run config =
  let flight_path = flight_path_of config in
  try run_inner config ~flight_path
  with e ->
    let bt = Printexc.get_raw_backtrace () in
    Recorder.record ~kind:"crash" ("fatal: " ^ Printexc.to_string e);
    dump_flight ~why:"fatal exit" flight_path;
    Printexc.raise_with_backtrace e bt

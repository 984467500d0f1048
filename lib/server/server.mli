(** [ricd]: the completeness-checking daemon.

    The daemon is one domain running a [Unix.select] event loop over
    non-blocking sockets: it accepts connections, assembles framed
    requests incrementally in per-connection buffers, and runs each
    complete frame's {!Service.handle} on the loop itself, one frame
    per ready connection per pass, oldest connection first.  Replies
    go out through per-connection write buffers (written at once where
    the socket takes them); requests pipelined on one connection are
    answered in order.  The deciders are pure functions of an
    immutable snapshot, and every benchmarked client keeps at most one
    request in flight, so a pool of worker domains bought no
    throughput on the hardware measured (EXPERIMENTS.md, "Retiring the
    domain pool").

    The trade-off: while a request runs, nothing else is read or
    answered.  A request without [timeout_ms] holds the loop until it
    finishes, so clients that send slow decides should set one.

    Overload behaviour: a frame is {e admitted} when the loop reads it
    and fewer than [queue_capacity] admitted frames wait unanswered.
    Past that backlog the frame is shed — the client gets a structured
    [overloaded] reply carrying [retry_after_ms] (scaled by the
    backlog), in request order, never a silent drop; the same reply
    (best-effort) is written to connections refused at
    [max_connections].  Admitted requests have their [timeout_ms]
    deadline anchored at the read, so time spent waiting behind other
    requests counts against it (time in the kernel's socket buffer
    does not).  Connections that stall mid-frame for
    [read_deadline_s], or stop draining their replies for
    [write_deadline_s], are evicted (slow-loris defense).

    {!run} blocks until a [shutdown] request {e or} a SIGTERM/SIGINT
    arrives, then drains: the listen socket closes immediately, each
    connection is read one last time (frames that arrived while the
    loop was busy count), every admitted frame is answered, and write
    buffers are flushed before {!run} returns.  A stale socket file
    left by a crashed daemon is detected (nothing answers it) and
    removed at startup; a live one makes {!run} raise rather than
    steal it.

    With [journal] set, every session mutation is appended to a
    JSON-lines journal ({!Ric_text.Journal}); with [recover] it is
    replayed first, restoring the sessions (ids, databases, epochs) a
    crashed daemon had open.  Fault injection for the robustness tests
    is armed via the [RIC_FAULTS] environment variable ({!Faults}).

    Request and latency logs go through the [logs] library under the
    ["ricd"] source; install a reporter (the CLI uses [Logs_fmt]) to
    see them.

    Every request carries a correlation id: a client-supplied
    [req_id], or one minted here ([ricd-<pid>-…]) before decode.  The
    id is echoed on the reply, stamped on spans, printed in request
    logs, and attached to flight-recorder events — one grep across
    logs, traces and the flight dump follows one request end to end.

    The flight recorder ({!Ric_obs.Recorder}) keeps the last window of
    request/reply/shed/evict/crash events in a fixed-size in-memory
    ring at all times; it is flushed to [flight] as JSONL on a fatal
    (uncaught-exception) exit, on SIGUSR1, and on a [dump] request. *)

type config = {
  socket_path : string;
  queue_capacity : int;
      (** admitted-but-unanswered request backlog (min 1); past it new
          frames are shed with an [overloaded] reply *)
  max_connections : int;
      (** connections the event loop will hold open at once; beyond
          it, new sockets get a best-effort [overloaded] frame and are
          closed (keep below [FD_SETSIZE] = 1024 with headroom) *)
  read_deadline_s : float;
      (** evict a connection that dangles a partial request frame this
          long (slow-loris defense) *)
  write_deadline_s : float;
      (** evict a connection that accepts none of its buffered reply
          bytes for this long *)
  root : string option;  (** base directory for [open] paths *)
  journal : string option;  (** session journal path; [None] = no durability *)
  recover : bool;  (** replay the journal at startup before serving *)
  metrics : string option;
      (** second Unix socket serving a Prometheus text-format snapshot
          of the {!Ric_obs.Metrics} registry per connection — plain
          [curl --unix-socket PATH http://localhost/metrics]-able *)
  trace : string option;
      (** JSONL span-trace sink ({!Ric_obs.Trace}); [None] (default)
          keeps tracing disabled and free *)
  flight : string option;
      (** flight-recorder dump target ({!Ric_obs.Recorder}); [None]
          (default) derives [socket_path ^ ".flight.jsonl"].  The
          in-memory ring always records; it is written out on fatal
          exit, SIGUSR1, or a [dump] request *)
}

val default_config : config
(** [/tmp/ricd.sock], queue capacity 64, 960 connections,
    10 s read/write deadlines, no root, no journal, no metrics socket, no tracing, flight recorder beside the
    socket. *)

val src : Logs.src
(** The ["ricd"] log source. *)

val run : config -> unit
(** @raise Unix.Unix_error when the socket cannot be bound (e.g. a
    live daemon already owns it — a stale socket file is unlinked
    automatically and does not count). *)

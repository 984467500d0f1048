(** The [ricd] request brain: session registry + verdict cache +
    decider dispatch, independent of any transport.

    [ricd] calls {!handle} from its one event loop, but it is safe to
    call concurrently from many domains (the tests do): registry
    and cache bookkeeping is serialised behind one mutex, while the
    deciders themselves run {e outside} the lock on immutable
    snapshots of [(D, Dm, V, Q)] — so two RCDP requests on different
    (or even the same) sessions compute in parallel, and a slow Σ₂ᵖ
    decide never blocks a cache hit.  Two identical simultaneous
    misses may both compute; the second store is harmless
    (last-writer-wins on equal verdicts).

    The cache policy on [insert] is the subsystem's point: see
    {!Cache} for the monotonicity argument, and the [cached] /
    [revalidated] response fields for how provenance is surfaced to
    clients. *)

type t

val create : ?root:string -> unit -> t
(** [root] anchors relative [path]s of [open] requests (defaults to
    the daemon's working directory). *)

val handle : t -> ?admitted_at:float -> Protocol.request -> Ric_text.Json.t
(** Serve one request.  Never raises: malformed scenarios, unknown
    sessions/queries/relations and unsupported language combinations
    all come back as JSON (either [{"ok": false, ...}] or an
    ["unsupported"] verdict).  A [Shutdown] request flips
    {!shutdown_requested} and still returns a response for the
    transport to flush.

    [admitted_at] (a {!Ric_obs.Metrics.now_s} stamp, on the monotonic
    clock) anchors the request's [timeout_ms] deadline at the moment
    the front end read its frame, so time spent waiting behind other
    requests counts against the budget; a deadline already spent
    answers a ["timeout"] verdict on the decider's first tick.  Omitted, the deadline starts when the
    decider does (the legacy behaviour, used by direct callers).

    A decide request carrying a [req_id] gets it stamped on the
    ["server.op"] span (and, via {!Ric_complete.Budget.label}, on the
    decider spans below it) and echoed as a ["req_id"] field on the
    reply.  With [explain = true] the decide computes fresh — the
    cache is bypassed on read, never poisoned on write (profiles ride
    on the reply, not in the cached result) — and the reply carries a
    structured ["profile"] object; see {!Protocol} for its shape. *)

val shutdown_requested : t -> bool

val request_shutdown : t -> unit
(** What a [shutdown] request and the SIGTERM/SIGINT handlers share:
    flip the stop flag; the transport's accept loop notices on its
    next idle poll and drains. *)

val attach_journal : t -> Ric_text.Journal.t -> unit
(** Start journalling [open]/[insert]/[close] mutations.  Attach
    {e after} {!recover} so replay is not re-journalled.  Journal
    write failures are swallowed: losing durability must not fail
    live requests. *)

val set_flight_path : t -> string -> unit
(** Where a [dump] request writes the flight recorder
    ({!Ric_obs.Recorder.dump}).  Unset, [dump] answers a
    ["no_flight_recorder"] error — the transport configures it at
    startup. *)

type recovery = {
  sessions_restored : int;  (** live sessions after replay *)
  entries_replayed : int;
  entries_failed : int;
      (** records that no longer applied (unparseable scenario,
          unknown session, bad insert) — logged and skipped *)
  torn_tail : bool;  (** the journal ended mid-record (crash mid-append) *)
  retained : Ric_text.Journal.entry list;
      (** the compacted journal: entries of still-open sessions, in
          order, with epochs preserved — rewrite the journal file from
          these before attaching it *)
}

val recover : t -> string -> recovery
(** Replay a session journal into the (empty) registry: re-parse each
    [open]'s embedded scenario source, re-apply inserts (restoring
    epochs and partial-closure state), honour closes.
    @raise Sys_error when the journal file cannot be read. *)

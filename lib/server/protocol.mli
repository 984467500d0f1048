(** The [ricd] wire protocol.

    Requests and responses are single JSON values framed with a 4-byte
    big-endian length prefix.  A client writes [<u32 length><payload>]
    and reads one framed response per request; it may pipeline several
    requests on one connection.  Payloads use {!Ric_text.Json} — the
    same encoding the CLI's [--json] mode emits.

    {2 Requests}

    {v
    {"op": "ping"}
    {"op": "open", "path": "scenarios/crm.ric"}         # server-side file
    {"op": "open", "source": "schema R(a). ...",
     "name": "inline"}                                  # inline scenario
    {"op": "rcdp",  "session": "s1", "query": "Q0"}
    {"op": "rcqp",  "session": "s1", "query": "Q0"}
    {"op": "audit", "session": "s1", "query": "Q0"}
    {"op": "mine",  "session": "s1"}                    # induce constraints
    {"op": "insert", "session": "s1", "rel": "Cust",
     "rows": [["c2", "carol", 908]]}
    {"op": "insert_bulk", "session": "s1",
     "batches": [{"rel": "Cust", "rows": [["c3", "dave", 17]]},
                 {"rel": "Supt", "rows": [["e1", "d2", "c3"]]}]}
    {"op": "close", "session": "s1"}
    {"op": "stats"}
    {"op": "shutdown"}
    v}

    [rcdp]/[rcqp]/[audit] accept an optional ["nocache": true] field
    that bypasses the verdict cache (used by the benches to measure
    raw decider throughput), and an optional ["timeout_ms": <int>]
    deadline: when the decider exhausts it the response carries a
    [{"verdict": "timeout", ...}] result (with the work-done counters
    accumulated so far) instead of making the client wait out a
    Σ₂ᵖ/NEXPTIME search.  Timed-out verdicts are never cached.

    They also accept an optional ["search": "seq"|"inc"|"par"|"par:N"]
    field ([N >= 1]), checked by {!check_search}.  It is accepted for
    compatibility and ignored: the valuation search is always
    sequential, so the reply is the same whichever spelling a request
    carries, and cache keys ignore it.

    {2 Correlation and explain}

    {e Every} request may carry an optional ["req_id": "<string>"]
    correlation id.  {!Client.rpc} mints one when the caller didn't;
    the server mints one for raw clients that sent none.  The id is
    echoed on the reply, stamped on the server's trace spans and log
    lines, and recorded in the flight recorder — one grep joins a
    request's whole story across all four.  Decode tolerates the field
    on any op; only the decide ops carry it in the typed record.

    [rcdp]/[rcqp]/[audit] additionally accept ["explain": true]: the
    decider then accumulates a request-scoped explain profile
    ({!Ric_obs.Profile}) and the reply carries it as a structured
    ["profile"] object — per-search-level steps, per-constraint prune
    attribution, decider counters and notes.  Explain computes fresh
    (the cache is bypassed on read) so the profile always describes
    {e this} run; the result may still land in the cache.  Without the
    flag, replies carry no ["profile"] field and the deciders' hot
    path pays nothing.

    [{"op": "dump"}] asks the daemon to write its flight recorder to
    the configured JSONL file and answers [{"ok": true, "path": ...,
    "events": n}] — same effect as sending the process [SIGUSR1].

    {2 Responses}

    Every response is an object with an ["ok"] boolean.  Failures look
    like [{"ok": false, "kind": "unknown_session", "error": "..."}].
    Verdict responses carry the session epoch, cache provenance and
    the decider's latency:

    {v
    {"ok": true, "session": "s1", "query": "Q0", "epoch": 0,
     "cached": false, "revalidated": false, "elapsed_us": 412,
     "result": {"verdict": "incomplete", ...}}
    v}

    {2 Overload}

    When admission control sheds a request — the backlog of read but
    unanswered requests is at capacity, or the front end is at its
    connection limit — the server
    still answers, with a structured shed reply rather than a dropped
    connection:

    {v
    {"ok": false, "kind": "overloaded",
     "error": "server at capacity; retry after 75 ms",
     "retry_after_ms": 75}
    v}

    [retry_after_ms] scales with the current backlog.  A
    well-behaved client treats it as a {e floor} for its next retry
    delay: {!Client.rpc_retrying} sleeps at least that long (plus
    jitter) before resending, and the client's circuit breaker counts
    consecutive [overloaded]/timeout replies so a saturated server
    stops receiving retries entirely for a cooldown period.  Requests
    that were {e admitted} are never shed retroactively: the time they
    wait behind other requests counts against their [timeout_ms]
    deadline instead, so a long-waiting request answers
    [{"verdict": "timeout"}] rather than running after its caller gave
    up.

    {2 Stats}

    [stats] reports the daemon's telemetry: [uptime_s], the legacy
    [requests]/[timeouts]/[ops] counters (the [search_modes] and
    [search_default] fields went with the parallel search), the open
    [sessions], a [cache] object ([entries], [hits], [misses],
    [hit_rate] — a decimal string like ["0.833"], ["0.000"] before any
    lookup — [carried], [dropped]), and a [metrics] array mirroring the full
    {!Ric_obs.Metrics} registry (every counter, gauge and latency
    histogram the Prometheus socket exposes, as structured JSON).

    All stats counters are {b process-lifetime totals and are never
    reset}: they survive session closes and cache invalidations, and
    two [stats] calls bracketing a workload can be subtracted to
    measure it.  Rates (like [hit_rate]) are recomputed from those
    running totals at each call.  Only a daemon restart zeroes them. *)

open Ric_relational

type request =
  | Ping
  | Open of { path : string option; source : string option; name : string option }
  | Rcdp of {
      session : string;
      query : string;
      nocache : bool;
      timeout_ms : int option;
      search : string option;
      req_id : string option;  (** correlation id (minted when absent) *)
      explain : bool;  (** attach an explain profile to the reply *)
    }
  | Rcqp of {
      session : string;
      query : string;
      nocache : bool;
      timeout_ms : int option;
      search : string option;
      req_id : string option;
      explain : bool;
    }
  | Audit of {
      session : string;
      query : string;
      nocache : bool;
      timeout_ms : int option;
      search : string option;
      req_id : string option;
      explain : bool;
    }
  | Mine of {
      session : string;
      nocache : bool;
      timeout_ms : int option;
      min_support : int option;  (** acceptance threshold (default 1) *)
      workers : int option;
          (** accepted and ignored: mining always scores sequentially;
              older clients still send it *)
    }
      (** Induce containment constraints from the session's [(Dm, D)]
          pair.  The response carries the accepted constraints in
          concrete [.ric] syntax plus mining stats; results are cached
          per session epoch like decides, so any [insert] invalidates
          them.  A timed-out pass answers with the partial constraint
          set and a ["timeout"] field instead of blocking. *)
  | Insert of { session : string; rel : string; rows : Value.t list list }
  | Insert_bulk of {
      session : string;
      batches : (string * Value.t list list) list;
    }
      (** [{"op": "insert_bulk", "session": "s1", "batches":
          [{"rel": "Cust", "rows": [[...], ...]}, ...]}] — several
          relations' rows applied as {e one} mutation: one epoch bump,
          one partial-closure re-check, one journal append and one
          cache migration for the whole batch, instead of one of each
          per [insert].  All-or-nothing: the first schema violation
          rejects the entire request and leaves the session
          untouched. *)
  | Close of { session : string }
  | Stats
  | Dump
      (** Write the flight recorder to the daemon's configured JSONL
          path and report how many events were dumped. *)
  | Shutdown

val check_search : string -> (string, string) result
(** [Ok s] for a spelling of the ["search"] field or of [ric --search]
    ([seq], [inc], [par], [par:N] with [N >= 1]), an error naming the
    accepted spellings otherwise.  Every accepted spelling means the
    sequential search. *)

val of_json : Ric_text.Json.t -> (request, string) result
(** Decode a request object; the error names the missing or ill-typed
    field. *)

val to_json : request -> Ric_text.Json.t
(** Encode a request (the client side of the protocol). *)

val op_name : request -> string
(** The ["op"] string, for logs and stats. *)

val req_id_of : Ric_text.Json.t -> string option
(** The ["req_id"] field of a raw request (or reply) object, when
    present and a non-empty string.  Works on {e any} op — correlation
    ids live at the JSON level. *)

val with_req_id : Ric_text.Json.t -> string -> Ric_text.Json.t
(** Add ["req_id"] to a request object that doesn't already have one
    (an existing id — even an ill-typed one — is left untouched).
    Non-objects pass through unchanged. *)

val error : ?kind:string -> string -> Ric_text.Json.t
(** [{"ok": false, "kind": kind, "error": msg}] (kind defaults to
    ["error"]). *)

val overloaded : retry_after_ms:int -> Ric_text.Json.t
(** The load-shedding reply (see {e Overload} above): [{"ok": false,
    "kind": "overloaded", "error": ..., "retry_after_ms": n}]. *)

val retry_after_ms : Ric_text.Json.t -> int option
(** [Some n] when the response is an [overloaded] shed reply carrying
    a retry hint ([Some 0] if the field is missing or negative);
    [None] for every other response.  The client's retry loop keys on
    this. *)

(* ------------------------------------------------------------------ *)
(** {2 Framing} *)

exception Frame_error of string
(** A malformed frame: truncated length prefix, truncated payload, or
    a length outside [1 .. max_frame]. *)

val max_frame : int
(** Refuse frames larger than this (16 MiB) rather than letting a
    corrupt length prefix allocate unboundedly. *)

val read_frame : ?timeout_raises:bool -> Unix.file_descr -> string option
(** Read one frame.  [None] on a clean EOF before the first length
    byte.  @raise Frame_error on a malformed frame; Unix errors
    (including receive timeouts) on the {e first} read pass through.
    Mid-frame receive timeouts are retried by default (the server's
    idle-poll mode); with [timeout_raises] they raise [Frame_error]
    instead (the client's receive-timeout mode — a half-delivered
    reply means the connection is unusable). *)

val frame_bytes : string -> bytes
(** The on-wire form of one frame — length prefix plus payload — for
    callers that buffer writes themselves (the event-loop front end).
    @raise Frame_error if the payload exceeds {!max_frame}. *)

val write_frame : ?tear:int -> ?stall:float -> Unix.file_descr -> string -> unit
(** Write one frame.  [tear] (fault injection only) stops after that
    many bytes and raises [Frame_error] so the server tears the
    connection down.  [stall] (fault injection only) sleeps that many
    seconds after the first two header bytes, emulating a slow-loris
    peer.  @raise Frame_error if the payload exceeds {!max_frame}. *)

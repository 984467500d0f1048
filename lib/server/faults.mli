(** Fault injection for the robustness tests (and for poking a live
    daemon).

    The harness is a process-global table of named {e fault points}.
    Production code calls {!fire} (or {!tear}) at a point; with nothing
    armed that is a hashtable miss and nothing more, so the hooks stay
    in release builds.  Tests (same process — the e2e suite runs the
    server in a sibling domain) or the [RIC_FAULTS] environment
    variable arm faults at specific points:

    - ["decide"] — fired by the service just before running a decider;
      arm a [Delay] to make a request reliably slow.
    - ["request"] — fired by the event loop as it starts handling a
      request frame; arm a [Delay] to park the loop (the frames that
      arrive meanwhile wait in the socket buffers), or [Drop] to hang
      up without a reply.
    - ["tear_write"] — consulted by the server's frame writer via
      {!tear}; arm [Tear n] to close the connection after writing only
      [n] bytes of a reply frame.
    - ["slow_read"] — consulted by the {e client} frame writer via
      {!slow_read}; arm a [Delay s] to make the client stall for [s]
      seconds in the middle of a request frame, so the server sees a
      slow-loris connection and must enforce its read deadline.
    - ["torn_read"] — consulted by the {e client} frame writer via
      {!torn_read}; arm [Tear n] to send only [n] bytes of a request
      frame and then go silent, leaving the server with a permanently
      partial incoming frame.

    [RIC_FAULTS] syntax: comma-separated [point=action] items, where
    action is [drop], [delay:<seconds>] or [tear:<bytes>], optionally
    suffixed [*<times>] ([*-1] = never wears out).
    Example: [RIC_FAULTS="request=drop*2,decide=delay:0.2"]. *)

type action =
  | Delay of float  (** sleep this many seconds, then proceed *)
  | Drop  (** raise {!Dropped}: abandon the connection silently *)
  | Tear of int  (** write only this many bytes of the next frame *)

exception Dropped

val arm : ?times:int -> string -> action -> unit
(** Arm [point] for [times] firings (default 1; negative = unlimited). *)

val reset : unit -> unit
(** Disarm everything (tests call this between cases). *)

val fire : string -> unit
(** Consume one shot at [point] and act on it; no-op when nothing is
    armed there.  [Tear] faults are ignored here — they only make sense
    at a write site, via {!tear}. *)

val tear : unit -> int option
(** Consume one shot at the ["tear_write"] point: [Some n] when a
    [Tear n] fault is armed. *)

val slow_read : unit -> float option
(** Consume one shot at the ["slow_read"] point: [Some seconds] when a
    [Delay] fault is armed.  Consulted by the client-side frame writer
    (see {!Client}) to stall mid-request. *)

val torn_read : unit -> int option
(** Consume one shot at the ["torn_read"] point: [Some n] when a
    [Tear n] fault is armed.  Consulted by the client-side frame
    writer to truncate a request frame. *)

val init_from_env : unit -> unit
(** Arm faults from [RIC_FAULTS], warning on stderr about malformed
    items.  Called once at server start. *)

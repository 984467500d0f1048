(** The crash flight recorder: a fixed-size in-memory ring of recent
    request / reply / shed / crash events, always on, cheap enough to
    leave recording under full load, and dumped as JSONL only when
    something goes wrong (fatal exit, SIGUSR1, or a [dump] protocol
    op) — so post-mortems do not depend on having span
    tracing pre-enabled.

    Writers are lock-free: one atomic fetch-and-add claims a slot, one
    pointer store publishes the immutable event.  A dump that races a
    wrap-around may observe a slot from either lap — both are real
    events; the per-event sequence number keeps the ordering honest.

    The ring is process-global (like the {!Metrics} registry): the
    daemon is one process and every layer can record without plumbing
    a handle through the stack. *)

type event = {
  seq : int;  (** monotonically increasing claim order *)
  t_us : int;  (** monotonic clock, microseconds *)
  kind : string;  (** "request", "reply", "shed", "evict", "crash", ... *)
  req_id : string;  (** correlation id, [""] when unknown *)
  conn : int;  (** connection number, [-1] when not connection-bound *)
  detail : string;
}

val set_capacity : int -> unit
(** Resize (and clear) the ring; default 512 events.  Clamped to
    [>= 16].  Not safe against concurrent writers — call it at
    startup, before serving. *)

val record : kind:string -> ?req_id:string -> ?conn:int -> string -> unit
(** Append one event (the positional argument is [detail]). *)

val events : unit -> event list
(** The surviving events, oldest first. *)

val recorded : unit -> int
(** Total events ever recorded (not just the surviving window). *)

val dump : string -> int
(** Write the surviving events to [path] as JSON lines (one event per
    line, oldest first) and return how many were written.  Overwrites.
    @raise Sys_error when the file cannot be written. *)

(** A supervised pool of OCaml 5 [Domain]s draining a bounded job queue.

    [ricd] submits each accepted connection as a job, so requests on
    independent sessions run truly in parallel (the deciders are pure
    functions over immutable snapshots; only the registry/cache
    bookkeeping is serialised).  The queue bound gives backpressure:
    {!submit} blocks the producer when [capacity] jobs are already
    waiting, rather than accepting connections it cannot serve.

    Supervision: an ordinary exception from [worker] is logged and
    counted — the domain keeps serving.  A {!Crash} kills the domain;
    the pool respawns a replacement and retries the fatal job once on
    another worker.  A job that kills its worker {e twice} is
    quarantined: it is dropped from the queue and reported through
    [on_quarantine] so the server can answer the client with an error
    instead of silence. *)

type 'a t

exception Crash of string
(** Raise from [worker] to take the whole worker domain down (the
    fault-injection harness uses this to simulate a dying domain).
    Anything else the worker raises is a per-job failure: logged,
    counted, and survived. *)

type stats = {
  failures : int;  (** per-job exceptions survived by their worker *)
  crashes : int;  (** worker domains lost to {!Crash} *)
  respawns : int;  (** replacement domains spawned after a crash *)
  quarantined : int;  (** jobs dropped after crashing two workers *)
  pending : int;  (** jobs currently queued (racy snapshot) *)
}

val create :
  ?on_quarantine:('a -> string -> unit) ->
  domains:int ->
  capacity:int ->
  worker:('a -> unit) ->
  unit ->
  'a t
(** Spawn [max 1 domains] worker domains.  [on_quarantine job reason]
    fires (outside the pool lock, exceptions swallowed) when a job is
    dropped after its second crash. *)

val domains : 'a t -> int

val submit : 'a t -> 'a -> bool
(** Enqueue a job, blocking while the queue is full.  [false] once
    {!shutdown} has begun — the job is not enqueued. *)

val try_submit : 'a t -> 'a -> bool
(** Non-blocking {!submit}: [false] immediately when the queue is at
    capacity (the caller sheds the job) or shutdown has begun, instead
    of parking the producer.  This is the admission-control entry point
    for event-loop callers that must never block. *)

val capacity : 'a t -> int
(** The queue bound passed to {!create} (after the [max 1] clamp). *)

val pending : 'a t -> int
(** Jobs currently queued (racy snapshot, for stats). *)

val stats : 'a t -> stats

val shutdown : 'a t -> unit
(** Stop accepting jobs, let the workers drain the queue, and join
    them — including any replacements spawned by crashes.  Idempotent. *)

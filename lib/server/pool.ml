let src = Logs.Src.create "ricd.pool" ~doc:"ricd worker-pool supervision"

module Log = (val Logs.src_log src : Logs.LOG)

exception Crash of string

type stats = {
  failures : int;
  crashes : int;
  respawns : int;
  quarantined : int;
  pending : int;
}

type 'a job = { payload : 'a; mutable attempts : int }

type 'a t = {
  jobs : 'a job Queue.t;
  mutex : Mutex.t;
  not_empty : Condition.t;
  not_full : Condition.t;
  capacity : int;
  n_domains : int;
  worker : 'a -> unit;
  on_quarantine : ('a -> string -> unit) option;
  mutable stopping : bool;
  live : (int, unit Domain.t) Hashtbl.t;
  mutable retired : unit Domain.t list;
  mutable next_key : int;
  mutable failures : int;
  mutable crashes : int;
  mutable respawns : int;
  mutable quarantined : int;
}

(* Spawn a worker and register its handle under [t.mutex].  Holding the
   mutex across spawn+register means the child cannot reach its own
   death handler (which needs the mutex) before the handle is in
   [t.live] — so a crashing worker always finds itself there. *)
let rec spawn_locked t =
  let key = t.next_key in
  t.next_key <- key + 1;
  let d = Domain.spawn (fun () -> worker_loop t key) in
  Hashtbl.replace t.live key d

and worker_loop t key =
  Mutex.lock t.mutex;
  while Queue.is_empty t.jobs && not t.stopping do
    Condition.wait t.not_empty t.mutex
  done;
  if Queue.is_empty t.jobs then
    (* stopping and drained; the handle stays in [t.live] for shutdown
       to join *)
    Mutex.unlock t.mutex
  else begin
    let job = Queue.pop t.jobs in
    Condition.signal t.not_full;
    Mutex.unlock t.mutex;
    match t.worker job.payload with
    | () -> worker_loop t key
    | exception Crash msg -> die t key job msg
    | exception e ->
      Mutex.lock t.mutex;
      t.failures <- t.failures + 1;
      Mutex.unlock t.mutex;
      Log.err (fun m -> m "worker job failed: %s" (Printexc.to_string e));
      worker_loop t key
  end

(* A [Crash] takes the whole domain down.  The dying domain does its own
   succession: requeue or quarantine the fatal job, retire its handle,
   and spawn a replacement — then fall off the end and exit. *)
and die t key job msg =
  let quarantine = ref false in
  Mutex.lock t.mutex;
  t.crashes <- t.crashes + 1;
  job.attempts <- job.attempts + 1;
  if job.attempts >= 2 then begin
    t.quarantined <- t.quarantined + 1;
    quarantine := true
  end
  else begin
    Queue.push job t.jobs;
    Condition.signal t.not_empty
  end;
  (match Hashtbl.find_opt t.live key with
   | Some d ->
     Hashtbl.remove t.live key;
     t.retired <- d :: t.retired
   | None -> () (* shutdown already claimed the handle and will join it *));
  if not t.stopping then begin
    t.respawns <- t.respawns + 1;
    spawn_locked t
  end;
  Mutex.unlock t.mutex;
  Log.err (fun m ->
      m "worker domain crashed (%s); job attempt %d%s" msg job.attempts
        (if !quarantine then ", job quarantined"
         else if t.stopping then ""
         else ", respawned"));
  if !quarantine then
    match t.on_quarantine with
    | Some f -> ( try f job.payload msg with _ -> ())
    | None -> ()

let create ?on_quarantine ~domains ~capacity ~worker () =
  let t =
    {
      jobs = Queue.create ();
      mutex = Mutex.create ();
      not_empty = Condition.create ();
      not_full = Condition.create ();
      capacity = max 1 capacity;
      n_domains = max 1 domains;
      worker;
      on_quarantine;
      stopping = false;
      live = Hashtbl.create 8;
      retired = [];
      next_key = 0;
      failures = 0;
      crashes = 0;
      respawns = 0;
      quarantined = 0;
    }
  in
  Mutex.lock t.mutex;
  for _ = 1 to t.n_domains do
    spawn_locked t
  done;
  Mutex.unlock t.mutex;
  t

let domains t = t.n_domains

let submit t payload =
  Mutex.lock t.mutex;
  while Queue.length t.jobs >= t.capacity && not t.stopping do
    Condition.wait t.not_full t.mutex
  done;
  let accepted = not t.stopping in
  if accepted then begin
    Queue.push { payload; attempts = 0 } t.jobs;
    Condition.signal t.not_empty
  end;
  Mutex.unlock t.mutex;
  accepted

(* Non-blocking admission for event-loop callers: a full queue is an
   immediate [false] (the caller sheds) instead of a wait on
   [not_full] — the select loop must never park on a condition. *)
let try_submit t payload =
  Mutex.lock t.mutex;
  let accepted = (not t.stopping) && Queue.length t.jobs < t.capacity in
  if accepted then begin
    Queue.push { payload; attempts = 0 } t.jobs;
    Condition.signal t.not_empty
  end;
  Mutex.unlock t.mutex;
  accepted

let capacity t = t.capacity

let pending t =
  Mutex.lock t.mutex;
  let n = Queue.length t.jobs in
  Mutex.unlock t.mutex;
  n

let stats t =
  Mutex.lock t.mutex;
  let s =
    {
      failures = t.failures;
      crashes = t.crashes;
      respawns = t.respawns;
      quarantined = t.quarantined;
      pending = Queue.length t.jobs;
    }
  in
  Mutex.unlock t.mutex;
  s

let shutdown t =
  Mutex.lock t.mutex;
  let already = t.stopping in
  t.stopping <- true;
  Condition.broadcast t.not_empty;
  Condition.broadcast t.not_full;
  Mutex.unlock t.mutex;
  if not already then begin
    (* Crashed workers may have spawned successors right up until
       [stopping] was set, so keep collecting until nothing is left. *)
    let rec drain () =
      Mutex.lock t.mutex;
      let handles = Hashtbl.fold (fun _ d acc -> d :: acc) t.live t.retired in
      Hashtbl.reset t.live;
      t.retired <- [];
      Mutex.unlock t.mutex;
      match handles with
      | [] -> ()
      | hs ->
        List.iter Domain.join hs;
        drain ()
    in
    drain ()
  end

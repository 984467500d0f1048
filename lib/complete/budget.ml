type reason = Deadline | Step_limit | Cancelled

let reason_name = function
  | Deadline -> "deadline"
  | Step_limit -> "step_limit"
  | Cancelled -> "cancelled"

exception Exhausted of reason

(* Observability: polls happen at most once per 256 steps, so one
   atomic add here is invisible next to the syscall it accompanies;
   exhaustions are rare by construction. *)
let m_polls =
  Ric_obs.Metrics.counter
    ~help:"full budget checks (deadline and cancel-flag polls)"
    "ric_budget_polls_total"

let m_exhausted r =
  Ric_obs.Metrics.counter
    ~help:"searches aborted by a spent budget, by reason"
    ~labels:[ ("reason", reason_name r) ]
    "ric_budget_exhausted_total"

let m_exhausted_deadline = m_exhausted Deadline
let m_exhausted_steps = m_exhausted Step_limit
let m_exhausted_cancelled = m_exhausted Cancelled

let exhaust r =
  (match r with
   | Deadline -> Ric_obs.Metrics.incr m_exhausted_deadline
   | Step_limit -> Ric_obs.Metrics.incr m_exhausted_steps
   | Cancelled -> Ric_obs.Metrics.incr m_exhausted_cancelled);
  raise (Exhausted r)

type t = {
  limited : bool;
  label : string option;        (* correlation id of the owning request *)
  deadline : float;            (* absolute monotonic time; infinity when unset *)
  max_steps : int;             (* max_int when unset *)
  cancel : bool Atomic.t list;
  mutable steps : int;
  shared : int Atomic.t option;
  (* When set, [max_steps] caps this process-wide counter instead of
     the local [steps]: every tick does one [fetch_and_add], so a
     family of workers sharing the counter enforces the cap exactly —
     no overshoot, no job-end merge.  [steps] stays the per-worker
     tally (poll stride + utilisation reporting). *)
}

let unlimited =
  {
    limited = false;
    label = None;
    deadline = infinity;
    max_steps = max_int;
    cancel = [];
    steps = 0;
    shared = None;
  }

let create ?deadline_after ?max_steps ?cancel ?label () =
  let deadline =
    match deadline_after with
    | Some d -> Ric_obs.Metrics.now_s () +. d
    | None -> infinity
  in
  {
    limited = true;
    label;
    deadline;
    max_steps = Option.value ~default:max_int max_steps;
    cancel = Option.to_list cancel;
    steps = 0;
    shared = None;
  }

let steps t = t.steps
let label t = t.label

let remaining t =
  if t.max_steps = max_int then max_int else max 0 (t.max_steps - t.steps)

let is_unlimited t = not t.limited

let add_steps t n = if n > 0 then t.steps <- t.steps + n

(* A sibling-family child: ticks count against one process-wide atomic
   the whole family shares, and [max_steps] caps that counter, so the
   family as a whole can never overshoot the parent's remaining
   allowance. *)
let fork_shared ~shared ?cancel t =
  let max_steps =
    if t.max_steps = max_int then max_int
    else max 0 (t.max_steps - t.steps)
  in
  {
    limited = true;
    label = t.label;
    deadline = t.deadline;
    max_steps;
    cancel =
      (match cancel with Some flag -> flag :: t.cancel | None -> t.cancel);
    steps = 0;
    shared = Some shared;
  }

(* Steps consumed against [max_steps]: the family total for a shared
   child, the private counter otherwise. *)
let consumed t =
  match t.shared with Some c -> Atomic.get c | None -> t.steps

let check_now t =
  if t.limited then begin
    Ric_obs.Metrics.incr m_polls;
    if consumed t >= t.max_steps then exhaust Step_limit;
    List.iter
      (fun flag -> if Atomic.get flag then exhaust Cancelled)
      t.cancel;
    if t.deadline < infinity && Ric_obs.Metrics.now_s () > t.deadline then
      exhaust Deadline
  end

(* The clock and the cancel flags are polled once every 256 steps:
   a syscall per search leaf would dominate the leaf itself, and a
   deadline overshoot of a few hundred leaves is well inside the
   millisecond noise a caller can observe anyway. *)
let mask = 255

let tick t =
  if t.limited then begin
    t.steps <- t.steps + 1;
    (match t.shared with
     | Some c ->
       if 1 + Atomic.fetch_and_add c 1 >= t.max_steps then exhaust Step_limit
     | None -> if t.steps >= t.max_steps then exhaust Step_limit);
    if t.steps land mask = 0 then check_now t
  end

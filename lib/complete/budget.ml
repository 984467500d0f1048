type reason = Deadline | Step_limit

let reason_name = function
  | Deadline -> "deadline"
  | Step_limit -> "step_limit"

exception Exhausted of reason

(* Observability: polls happen at most once per 256 steps, so one
   atomic add here is invisible next to the syscall it accompanies;
   exhaustions are rare by construction. *)
let m_polls =
  Ric_obs.Metrics.counter
    ~help:"full budget checks (deadline polls)"
    "ric_budget_polls_total"

let m_exhausted r =
  Ric_obs.Metrics.counter
    ~help:"searches aborted by a spent budget, by reason"
    ~labels:[ ("reason", reason_name r) ]
    "ric_budget_exhausted_total"

let m_exhausted_deadline = m_exhausted Deadline
let m_exhausted_steps = m_exhausted Step_limit

let exhaust r =
  (match r with
   | Deadline -> Ric_obs.Metrics.incr m_exhausted_deadline
   | Step_limit -> Ric_obs.Metrics.incr m_exhausted_steps);
  raise (Exhausted r)

type t = {
  limited : bool;
  label : string option;        (* correlation id of the owning request *)
  deadline : float;            (* absolute monotonic time; infinity when unset *)
  max_steps : int;             (* max_int when unset *)
  mutable steps : int;
}

let unlimited =
  { limited = false; label = None; deadline = infinity; max_steps = max_int; steps = 0 }

let create ?deadline_after ?max_steps ?label () =
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
    steps = 0;
  }

let steps t = t.steps
let label t = t.label
let is_unlimited t = not t.limited

let check_now t =
  if t.limited then begin
    Ric_obs.Metrics.incr m_polls;
    if t.steps >= t.max_steps then exhaust Step_limit;
    if t.deadline < infinity && Ric_obs.Metrics.now_s () > t.deadline then
      exhaust Deadline
  end

(* The clock is polled once every 256 steps: a syscall per search leaf
   would dominate the leaf itself, and a deadline overshoot of a few
   hundred leaves is well inside the millisecond noise a caller can
   observe anyway. *)
let mask = 255

let tick t =
  if t.limited then begin
    t.steps <- t.steps + 1;
    if t.steps >= t.max_steps then exhaust Step_limit;
    if t.steps land mask = 0 then check_now t
  end

(** Cooperative resource budgets for the deciders.

    RCDP is Σ₂ᵖ-complete and RCQP NEXPTIME-complete (Tables I–II), so
    a single adversarial instance can keep a decider busy for longer
    than any caller is willing to wait.  A [Budget.t] is threaded
    through the valuation search and checked at every search leaf; when
    the deadline passes, the step allowance runs out, or the
    cancel flag is raised, the search aborts with {!Exhausted} and the
    caller reports a [timeout] outcome carrying the work-done counters
    instead of hanging.

    A budget is single-use and owned by one decide call; only the
    [cancel] flags may be shared across domains (they are [Atomic.t]s).
    Parallel search workers never share a budget: each gets a
    {!fork_shared} child whose ticks count against one atomic the
    family shares, and the coordinator folds the family total back
    into the parent with {!add_steps}. *)

type reason =
  | Deadline    (** the deadline passed *)
  | Step_limit  (** the step allowance ran out *)
  | Cancelled   (** the shared cancel flag was raised *)

val reason_name : reason -> string
(** ["deadline"], ["step_limit"] or ["cancelled"] — the wire spelling. *)

exception Exhausted of reason

type t

val unlimited : t
(** The default everywhere: {!tick} on it is a no-op and never raises. *)

val create :
  ?deadline_after:float ->
  ?max_steps:int ->
  ?cancel:bool Atomic.t ->
  ?label:string ->
  unit ->
  t
(** [deadline_after] is in seconds from now, on the monotonic clock
    ({!Ric_obs.Metrics.now_s}), so stepping the wall clock neither fires
    it early nor holds it off; [max_steps] caps the
    number of {!tick}s; [cancel] is polled so another domain can abort
    the search.  Omitted dimensions are unbounded.  [label] carries
    the owning request's correlation id ([req_id]) down into the
    deciders, which stamp it on their trace spans — it costs nothing
    and limits nothing. *)

val tick : t -> unit
(** Count one unit of work.  Steps are compared every tick; the clock
    and the cancel flag are polled every 256 ticks.
    @raise Exhausted when the budget is spent. *)

val check_now : t -> unit
(** Force a full check regardless of the polling stride (used at
    coarse-grained points like DFS nodes).  @raise Exhausted *)

val steps : t -> int
(** Work done so far — the counter surfaced in timeout verdicts. *)

val label : t -> string option
(** The correlation id the budget carries ({!create}'s [label];
    inherited by {!fork_shared} children). *)

val remaining : t -> int
(** Step allowance left ([max_int] when unbounded) — what a
    coordinator may still fold in with {!add_steps} without pushing
    {!steps} past the cap. *)

val is_unlimited : t -> bool

val fork_shared : shared:int Atomic.t -> ?cancel:bool Atomic.t -> t -> t
(** A child budget for one parallel search worker: the parent's
    deadline and cancel flags, plus an optional extra flag (the
    coordinator's first-witness stop signal).  The child is limited
    even when the parent is {!unlimited}, so the extra flag is always
    polled.  Every tick of every child built over the same
    [shared] atomic counts against that one counter, and the parent's
    remaining allowance caps the {e family total} — concurrent workers
    can never collectively overshoot the step cap, and no job-end merge
    is needed for enforcement.  Each child's {!steps} remains its
    private tally (used for the 256-tick poll stride and per-worker
    utilisation reporting).

    Accounting contract under sharing: the coordinator folds
    [min (Atomic.get shared) allowance] into the parent with a single
    {!add_steps} after all children stop; it must {e not} also fold the
    children's private {!steps} (the shared counter already holds the
    family total). *)

val add_steps : t -> int -> unit
(** Fold a child's step count back into the parent after a join.
    Does not raise — follow with {!check_now} to propagate limits. *)

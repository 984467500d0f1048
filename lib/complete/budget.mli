(** Cooperative resource budgets for the deciders.

    RCDP is Σ₂ᵖ-complete and RCQP NEXPTIME-complete (Tables I–II), so
    a single adversarial instance can keep a decider busy for longer
    than any caller is willing to wait.  A [Budget.t] is threaded
    through the valuation search and checked at every search leaf; when
    the deadline passes or the step allowance runs out, the search
    aborts with {!Exhausted} and the caller reports a [timeout] outcome
    carrying the work-done counters instead of hanging.

    A budget is single-use and owned by one decide call, on one
    domain: the valuation search is sequential. *)

type reason =
  | Deadline    (** the deadline passed *)
  | Step_limit  (** the step allowance ran out *)

val reason_name : reason -> string
(** ["deadline"] or ["step_limit"] — the wire spelling. *)

exception Exhausted of reason

type t

val unlimited : t
(** The default everywhere: {!tick} on it is a no-op and never raises. *)

val create : ?deadline_after:float -> ?max_steps:int -> ?label:string -> unit -> t
(** [deadline_after] is in seconds from now, on the monotonic clock
    ({!Ric_obs.Metrics.now_s}), so stepping the wall clock neither fires
    it early nor holds it off; [max_steps] caps the
    number of {!tick}s.  Omitted dimensions are unbounded.  [label]
    carries the owning request's correlation id ([req_id]) down into
    the deciders, which stamp it on their trace spans — it costs
    nothing and limits nothing. *)

val tick : t -> unit
(** Count one unit of work.  Steps are compared every tick; the clock
    is polled every 256 ticks.
    @raise Exhausted when the budget is spent. *)

val check_now : t -> unit
(** Force a full check regardless of the polling stride (used at
    coarse-grained points like DFS nodes).  @raise Exhausted *)

val steps : t -> int
(** Work done so far — the counter surfaced in timeout verdicts. *)

val label : t -> string option
(** The correlation id the budget carries ({!create}'s [label]). *)

val is_unlimited : t -> bool

(** RCDP — the relatively complete database problem (Section 3).

    Given a query [Q ∈ LQ], master data [Dm], a set [V] of containment
    constraints in [LC], and a partially closed database [D], decide
    whether [D ∈ RCQ(Q, Dm, V)]: is every partially closed extension
    [D′ ⊇ D] answer-preserving, [Q(D′) = Q(D)]?

    Decidable cases (Theorem 3.6, all Σ₂ᵖ-complete) are decided
    {e exactly} by enumerating the valid valuations of the query
    tableau over the active domain — the small-model space that
    Propositions 3.3 (CQ), Corollary 3.4 (INDs) and Corollary 3.5
    (UCQ) prove sufficient.  The search instantiates the tableau atom
    by atom and prunes a branch as soon as the partial extension
    already violates a constraint (violations persist because every
    supported [LC] is monotone).

    Undecidable cases (Theorem 3.1: [LQ] or [LC] in FO/FP) get a
    semi-decision procedure: a bounded search for a counterexample
    extension, which can refute completeness but can only bound-quantify
    its "no counterexample found" answer. *)

open Ric_relational
open Ric_query
open Ric_constraints

exception Unsupported of string
(** Raised when asked to {e decide} an undecidable combination — use
    {!semi_decide} instead. *)

exception Not_partially_closed of string
(** The input [D] must satisfy [(D, Dm) ⊨ V]; RCDP is only defined on
    partially closed databases. *)

type counterexample = {
  cex_valuation : Valuation.t;   (** the valid valuation [μ] *)
  cex_extension : Database.t;    (** [Δ = μ(T_Q)]: tuples whose addition changes the answer *)
  cex_answer : Tuple.t;          (** [μ(u_Q) ∈ Q(D ∪ Δ) \ Q(D)] *)
  cex_disjunct : int;            (** index of the violated CQ disjunct (0 for plain CQ) *)
}

type verdict =
  | Complete
  | Incomplete of counterexample

type stats = {
  valuations_visited : int;  (** leaves of the search tree *)
  branches_pruned : int;     (** subtrees cut by the CC check *)
}

val decide :
  ?clock:Budget.t ->
  ?check_partially_closed:bool ->
  ?checker:Checker.t ->
  ?collect_stats:stats ref ->
  ?profile:Ric_obs.Profile.t ->
  schema:Schema.t ->
  master:Database.t ->
  ccs:Containment.t list ->
  db:Database.t ->
  Lang.t ->
  verdict
(** Exact decision for [LQ ∈ {CQ, UCQ, ∃FO⁺}] and monotone [LC]
    (CQ/UCQ/∃FO⁺ containment constraints, including INDs).  ∃FO⁺
    queries go through their UCQ expansion, as in Theorem 3.6(4).

    [clock] (default {!Budget.unlimited}) bounds the Σ₂ᵖ search; when
    it runs out the search aborts with {!Budget.Exhausted}, after
    writing the partial counters into [collect_stats] so the caller
    can report how much work a timed-out decide had done.

    One {!Ric_constraints.Checker} serves the whole decide: the entry
    closure check and the search of every disjunct.  [D]'s relations
    carry their own column indexes, so the entry check, the evaluation
    of [Q(D)] and the searches index [D] once for all three.
    [checker] supplies it; it must have been created over [ccs] on
    [master] — a session passes the checker it keeps across its
    decides and writes.  Without it the decide builds its own over
    [ccs].  Either way the
    search starts on a closed base ({!Valuation_search.iter}'s
    [`Closed_base]): [(D, Dm) ⊨ V] was checked at entry or is the
    caller's guarantee, so no root re-check runs.

    [profile] (explain mode) accumulates a request-scoped explain
    profile: per-search-level step and prune counts, per-constraint
    prune attribution, and a decider note — see
    {!Ric_obs.Profile}.  Partial counts survive budget exhaustion.
    When omitted (the default) the hot path pays one option match per
    candidate and allocates nothing.

    @raise Unsupported if [Q] is FO/FP or some CC has a
      non-monotone (FO) or FP left-hand side.
    @raise Not_partially_closed if [(D, Dm) ⊭ V].  With
      [check_partially_closed] [false] the check is skipped and
      [(D, Dm) ⊨ V] becomes the caller's guarantee: the search
      assumes it, and on a [D] that breaks it the verdict is
      unspecified.
    @raise Budget.Exhausted when [clock] runs out mid-search. *)

val decide_ind :
  ?clock:Budget.t ->
  ?check_partially_closed:bool ->
  schema:Schema.t ->
  master:Database.t ->
  inds:Ind.t list ->
  db:Database.t ->
  Lang.t ->
  verdict
(** The IND fast path of Corollary 3.4: condition C3 tests
    [(μ(T_Q), Dm) ⊨ V] on the extension alone, never touching [D]
    during the search.  Exactly equivalent to {!decide} on
    [List.map (Ind.to_cc schema) inds] — cross-checked by tests and
    timed by the [ablation] bench. *)

type semi_verdict =
  | Refuted of counterexample
      (** a partially closed extension changing the answer exists — [D]
          is definitely not complete *)
  | No_counterexample of {
      max_tuples : int;
      candidate_values : int;
    }
      (** no extension of at most [max_tuples] tuples over the sampled
          value space changes the answer; completeness itself may be
          undecidable (Theorem 3.1) *)

val semi_decide :
  ?clock:Budget.t ->
  ?max_tuples:int ->
  ?fresh_values:int ->
  schema:Schema.t ->
  master:Database.t ->
  ccs:Containment.t list ->
  db:Database.t ->
  Lang.t ->
  semi_verdict
(** Bounded counterexample search for {e any} [LQ]/[LC] combination,
    including FO and FP: enumerate candidate extensions [Δ] of at most
    [max_tuples] tuples (default 2) over the active domain plus
    [fresh_values] fresh constants (default 2), and test
    [(D ∪ Δ, Dm) ⊨ V ∧ Q(D ∪ Δ) ≠ Q(D)] by evaluation. *)

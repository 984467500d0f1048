(** RCQP — the relatively complete query problem (Section 4).

    Given [Q ∈ LQ], master data [Dm] and CCs [V] in [LC], decide
    whether [RCQ(Q, Dm, V)] is nonempty: does {e any} partially closed
    database have complete information for [Q]?

    {2 Exact cases}

    - [LC] = INDs (Theorem 4.5(1), coNP-complete): decided exactly by
      the syntactic boundedness conditions E3/E4 of Proposition 4.3
      plus the valid-valuation escape clause — {!decide_ind}.
    - [LQ], [LC] ∈ {CQ, UCQ, ∃FO⁺} (Theorem 4.5(2),
      NEXPTIME-complete; Σ₃ᵖ for fixed [Dm], [V], Corollary 4.6):
      {!decide} checks the bounded-query conditions E1/E5 (all output
      variables over finite domains) exactly, and searches for the
      bounding valuation sets of conditions E2/E6 by a DFS over
      consistent sets of single-template instantiations of the
      constraint tableaux.  Condition E2 is monotone in the valuation
      set (bigger consistent sets bound more), and consistency is
      downward closed (the constraint languages are monotone), so
      testing only the maximal consistent sets reached by
      index-increasing chains is exact.  When the candidate pool or
      the DFS exceeds its budget the decider falls back to sound
      one-sided checks and may answer [Unknown] — the problem is
      NEXPTIME-complete, so a budget there must be.

    {2 Undecidable cases}

    For FO/FP (Theorem 4.1) use {!semi_decide}: a bounded witness
    search whose positive answers are only as strong as the bounded
    RCDP verification backing them. *)

open Ric_relational
open Ric_query
open Ric_constraints

exception Unsupported of string

type verdict =
  | Nonempty of {
      witness : Database.t option;
          (** a database verified complete by {!Rcdp.decide}, when the
              construction succeeded within budget *)
      reason : string;
    }
  | Empty of { reason : string }
  | Unknown of { reason : string }

val verdict_name : verdict -> string
(** ["nonempty"], ["empty"] or ["unknown"]. *)

type budget = {
  max_pool : int;        (** cap on candidate valuations for the E2 search *)
  max_nodes : int;       (** cap on DFS nodes over valuation sets *)
  max_valuations : int;  (** cap on tableau-valuation enumeration for witness building *)
  pool_fresh : int;
      (** how many fresh ([New]) values the candidate pool may use.
          The paper's construction reserves one per constraint
          variable; the default of 3 keeps the pool polynomial and is
          exact whenever a bounding valuation set needs at most 3
          distinct "don't care" values — raise it (at exponential
          cost) for paper-faithful exhaustiveness. *)
}

val default_budget : budget

val decide_ind :
  ?clock:Budget.t ->
  ?profile:Ric_obs.Profile.t ->
  schema:Schema.t ->
  master:Database.t ->
  inds:Ind.t list ->
  Lang.t ->
  verdict
(** Exact decision for [LC] = INDs and [LQ ∈ {CQ, UCQ, ∃FO⁺}]
    (Proposition 4.3 / Theorem 4.5(1)).  Never returns [Unknown].
    [profile] accumulates a request-scoped explain profile — see
    {!decide}.
    @raise Unsupported for FO/FP queries.
    @raise Budget.Exhausted when [clock] runs out. *)

val decide :
  ?clock:Budget.t ->
  ?budget:budget ->
  ?profile:Ric_obs.Profile.t ->
  schema:Schema.t ->
  master:Database.t ->
  ccs:Containment.t list ->
  Lang.t ->
  verdict
(** General decision for monotone [LQ]/[LC]; exact within budget, as
    described above.  [budget] caps the {e search shape} (pool size,
    DFS nodes) and degrades to [Unknown]; [clock] is the {e caller's
    patience} (deadline / steps) and aborts the whole call with
    {!Budget.Exhausted} — the service turns that into a [timeout]
    verdict.  One {!Ric_constraints.Checker} over [ccs] serves every
    inner valuation search, the candidate pool and the greedy and E2
    consistency checks of the call (the RCDP runs verifying a witness
    build their own).

    [profile] (explain mode) accumulates a request-scoped explain
    profile across every inner search: per-level steps and
    per-constraint prunes from the valuation searches, plus the
    decider-specific counters ["pool_steps"] (candidate-pool
    instantiations), ["witness_steps"] (greedy witness valuations) and
    ["e2_nodes"] (valuation-set DFS nodes — checked, not ticked, so
    excluded from step attribution).  Partial counts survive budget
    exhaustion.
    @raise Unsupported for FO/FP on either side.
    @raise Budget.Exhausted when [clock] runs out. *)

val verify_witness :
  ?clock:Budget.t ->
  ?profile:Ric_obs.Profile.t ->
  schema:Schema.t ->
  master:Database.t ->
  ccs:Containment.t list ->
  Lang.t ->
  Database.t ->
  bool
(** [verify_witness q w]: is [w] a witness — partially closed and
    complete for [q] ({!Rcdp.decide} with its entry closure check)?  A
    [w] with [(w, Dm) ⊭ V] is not one: [false], never
    {!Rcdp.Not_partially_closed}.  Its steps and prunes go to
    [profile], whose decider note it leaves as it found it. *)

type semi_verdict =
  | Plausibly_nonempty of {
      witness : Database.t;
      checked_up_to : int;  (** extension size the RCDP semi-decider explored *)
    }
  | No_witness_found of { candidates_tried : int }

val semi_decide :
  ?clock:Budget.t ->
  ?max_tuples:int ->
  ?max_candidates:int ->
  schema:Schema.t ->
  master:Database.t ->
  ccs:Containment.t list ->
  Lang.t ->
  semi_verdict
(** Bounded witness search for any language combination, including the
    undecidable FO/FP rows of Table II. *)

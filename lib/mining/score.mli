(** Candidate evaluation: support and confidence of one candidate
    constraint against a concrete [(D, Dm)] pair.

    - {b support} — evidence in [D]: the number of distinct answers of
      the candidate body (for the denial families, the enumeration-time
      hint — rows backing a closure, at-cap groups — since the body
      with its inequalities has no witnesses by design);
    - {b confidence} — the fraction of [q(D)] answers covered by
      [p(Dm)]; for a denial, [1.0] when no violating match exists in
      [D] and [0.0] otherwise.

    A candidate with confidence [1.0] {e is} a containment constraint
    satisfied by [(D, Dm)] — acceptance in {!Mine} requires exactly
    that, so mining can never emit a constraint
    {!Ric_constraints.Containment.holds} refutes (property-tested).

    Evaluation runs on the compiled {!Ric_query.Kernel}; [naive_score]
    is the [Cq.eval]-based differential-testing reference. *)

open Ric_relational
open Ric_query
open Ric_constraints

type scored = {
  candidate : Enumerate.candidate;
  support : int;
  confidence : float;
}

val cq_of : Enumerate.candidate -> Cq.t

val cc_of : ?name:string -> Enumerate.candidate -> Containment.t

type ctx
(** Evaluation context for one mining pass: a cache of interned RHS
    rowsets keyed by projection, reused across candidates. *)

val ctx : master:Database.t -> unit -> ctx

val score :
  ?budget:Ric_complete.Budget.t ->
  ctx ->
  db:Database.t ->
  Enumerate.candidate ->
  scored
(** Kernel-based evaluation; ticks [budget] once per body match.
    @raise Ric_complete.Budget.Exhausted when the budget runs out. *)

val naive_score : db:Database.t -> master:Database.t -> Enumerate.candidate -> scored
(** Reference implementation on the interpreted evaluator — slow, used
    by the differential tests. *)

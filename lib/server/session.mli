(** The session registry: each session pins one parsed [.ric] scenario
    — master data [Dm], constraints [V], queries — plus a {e mutable}
    database [D] that grows through [insert] requests, so repeated
    RCDP/RCQP requests never re-parse or re-load anything.

    The [epoch] counts database mutations; it keys the verdict cache,
    so stale verdicts are unreachable by construction.  Partial
    closure [(D, Dm) ⊨ V] is re-checked after every insert: the paper
    only defines RCDP on partially closed databases, and the first
    violated constraint is kept for error reporting.

    The re-check is a delta check.  Its precondition is that the
    parent state [D] was partially closed; every supported CC is
    monotone, so an insert [Δ] can break V only through LHS answers
    that use a tuple of [Δ] not already in [D], and
    {!Ric_constraints.Checker.check_adds} probes exactly those over
    [D ∪ Δ], whose relations keep the column indexes the probes build
    for the write's revalidations and the new epoch's decides.  Only
    when it finds a violation does the insert fall back to the full
    [Containment.first_violation] over [D ∪ Δ], which names the
    declaration-first violated constraint and its witness — so the
    report is the one a from-scratch check gives.  An insert that adds
    no new tuple runs no check at all; one into an already violated
    [D] runs none either (violations persist).

    This module does not lock sessions or registries; {!Service}
    serialises all access to a registry behind its own mutex. *)

open Ric_relational

type t = {
  id : string;  (** registry-unique, of the form ["s1"], ["s2"], ... *)
  name : string option;  (** client-supplied label, for logs *)
  scenario : Ric_text.Scenario.t;  (** immutable: schemas, [Dm], [V], queries *)
  ccs_fingerprint : string;
      (** digest of the printed constraint set — part of every cache
          key, so two sessions over different [V] can never share a
          verdict *)
  mutable db : Database.t;
  mutable epoch : int;  (** bumped by every successful {!insert} *)
  mutable closure_violation : (string * Tuple.t) option;
      (** [Some (cc_name, witness)] when [(D, Dm) ⊭ V] *)
}

val partially_closed : t -> bool

val checker : t -> Ric_constraints.Checker.t
(** The session's constraint checker, over the scenario's CCs on its
    master, built on the first call and held weakly, so it goes with
    the session.  It is memoised on the session's scenario by identity:
    the service parses a fresh scenario for every open, so there each
    session has its own; sessions opened in-process over one parsed
    scenario share one.  Writes delta-check through it, and the
    service's RCDP decides run on it.

    {b Index lifetime.}  The checker holds no index: each relation of
    [db] carries its own, built by the epoch's write (the closure check
    and the counterexample revalidations) or by its first decide.
    Every decide of the epoch reuses it; a write replaces the grown
    relations, and the old epoch's indexes go with them. *)

val find_query : t -> string -> Ric_query.Lang.t option

val query_names : t -> string list

type registry

val create : unit -> registry

val open_scenario : registry -> ?id:string -> ?name:string -> Ric_text.Scenario.t -> t
(** Register a freshly parsed scenario under a new session id, with
    its partial-closure status already computed.  [id] forces the
    session id (journal replay restores sessions under their original
    ids) and advances the id counter past it. *)

val find : registry -> string -> t option

val close : registry -> string -> bool
(** Remove the session; [false] when the id is unknown. *)

val count : registry -> int

val list : registry -> t list

val insert : t -> rel:string -> rows:Value.t list list -> (unit, string) result
(** Add tuples to relation [rel] of the session's database, bump the
    epoch and re-check partial closure (delta-checked as above).
    [Error] (schema violations — unknown relation, wrong arity, value
    outside a finite attribute domain) leaves the session untouched.
    An insert that breaks a containment constraint {e succeeds} — the
    session records the violation and RCDP/audit requests then answer
    [not_partially_closed].  Because every supported [LC] is
    monotone, a violation can never be repaired by further inserts;
    it is the client's signal to fix its feed and open a fresh
    session. *)

val insert_batches :
  t -> batches:(string * Value.t list list) list -> (unit, string) result
(** {!insert} for several relations at once, as one mutation: all
    batches are validated against the staged database before any of
    them lands, the epoch is bumped {e once} and partial closure is
    re-checked {e once}, one delta probe per new tuple against the
    whole batch — the unit cost that made per-tuple inserts a
    bottleneck for bulk feeds.  The rows are merged into each relation
    once ({!Ric_relational.Database.add_tuples}).  [Error] (the first
    schema violation) leaves the session completely untouched. *)

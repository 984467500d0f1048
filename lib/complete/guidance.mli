(** The three relative-completeness paradigms of Section 2.3, packaged
    as one audit:

    (1) {e assess} — is the database already complete for the query?
    (2) {e guide data collection} — if not, which tuples make it
        complete?  RCDP counterexamples are exactly the missing
        witnesses (Proposition 3.3's valuations), so replaying them
        into the database until the decider says "complete" yields a
        concrete to-collect list.
    (3) {e guide master-data expansion} — if no complete database
        exists at all (RCQP says empty), no amount of data collection
        helps: the master data itself must grow. *)

open Ric_relational
open Ric_query
open Ric_constraints

type audit_result =
  | Already_complete
  | Completable of {
      additions : Database.t;  (** tuples to collect *)
      completed : Database.t;  (** [db ∪ additions], verified complete *)
      rounds : int;            (** decider iterations used *)
    }
  | Not_completable of { reason : string }
      (** [RCQ(Q, Dm, V) = ∅]: expand the master data, not the
          database *)
  | Inconclusive of { reason : string }

val audit :
  ?clock:Budget.t ->
  ?profile:Ric_obs.Profile.t ->
  ?max_rounds:int ->
  schema:Schema.t ->
  master:Database.t ->
  ccs:Containment.t list ->
  db:Database.t ->
  Lang.t ->
  audit_result
(** Runs the RCDP decider, replaying counterexample extensions into
    the database for up to [max_rounds] (default 64) iterations, and
    consults the RCQP decider before giving up.  [clock] bounds the
    whole audit (it is shared across every decide round); [profile]
    (explain mode) is shared across every round, so the profile sums
    the whole audit's search work.
    @raise Rcdp.Unsupported for undecidable language combinations.
    @raise Budget.Exhausted when [clock] runs out. *)

val pp_audit : Format.formatter -> audit_result -> unit

(** The mining driver: enumerate → prune → score → accept.

    [run] turns a [(Dm, D)] pair into a set of containment constraints
    the pair satisfies: candidates from {!Enumerate} are pruned
    (empty body relation, empty projection target), scored by
    {!Score} in one sequential pass over one {!Score.ctx}, and
    accepted when their confidence is exactly [1.0] and their support
    reaches the threshold.  Accepted constraints are ordered deterministically
    (support descending, then canonical key), optionally reduced to a
    minimal cover by {!Ric_constraints.Optimize.normalize} (a
    constraint implied by an accepted more-general one via
    Chandra–Merlin containment, or whose body is unsatisfiable, is
    dropped), and named
    [mined-1], [mined-2], … — valid scenario identifiers, so the
    emitted block round-trips through the [.ric] parser.

    The whole pass runs under a {!Ric_complete.Budget}: when it is
    exhausted mid-enumeration or mid-scoring the run returns the
    partial result with [timed_out] set instead of raising.  The pass
    is instrumented with [ric_mine_*] metrics (candidates by stage,
    per-candidate evaluation latency, runs, timeouts). *)

open Ric_relational
open Ric_query
open Ric_constraints
module Budget = Ric_complete.Budget

type config = {
  enum : Enumerate.config;
  min_support : int;  (** accept only candidates with this much evidence *)
  min_confidence : float;
      (** report (but never emit) near-misses at or above this
          confidence; acceptance always requires confidence [1.0] *)
  minimal_cover : bool;  (** drop accepted constraints implied by others *)
}

val default : config
(** [{ enum = Enumerate.default; min_support = 1; min_confidence = 0.8;
      minimal_cover = true }] *)

type stats = {
  enumerated : int;  (** raw candidates, duplicates included *)
  duplicates : int;
  pruned : int;  (** skipped without kernel evaluation *)
  evaluated : int;
  accepted : int;
}

type result = {
  accepted : (string * Containment.t) list;
      (** named [mined-N], deterministic order *)
  accepted_scored : Score.scored list;  (** parallel to [accepted] *)
  near : Score.scored list;
      (** confidence in [[min_confidence, 1.0)] at sufficient support —
          constraints that {e almost} hold, for the report only *)
  stats : stats;
  timed_out : Budget.reason option;
}

val run :
  ?config:config ->
  ?budget:Budget.t ->
  db_schema:Schema.t ->
  master_schema:Schema.t ->
  db:Database.t ->
  master:Database.t ->
  unit ->
  result
(** Never raises {!Budget.Exhausted}; partial results carry
    [timed_out]. *)

type check_row = {
  cq_name : string;
  before : string;  (** RCDP verdict under [V = ∅] *)
  after : string;  (** RCDP verdict under the mined [V] *)
  flipped : bool;  (** [before ≠ Complete] and [after = Complete] *)
}

val cross_check :
  ?clock:Budget.t ->
  db_schema:Schema.t ->
  db:Database.t ->
  master:Database.t ->
  queries:(string * Lang.t) list ->
  mined:(string * Containment.t) list ->
  unit ->
  check_row list
(** Re-run the RCDP decider per query with the mined constraint set
    against the empty-constraint baseline, reporting which queries the
    mined knowledge promotes to [Complete].  Verdicts are
    ["Complete"], ["Incomplete"], ["unsupported"] or ["timeout:<r>"]. *)

(** Compiled match kernel: slot-addressed plans over interned rows.

    The interpreted {!Match_engine} pays for boxed value compares,
    string-map valuation binds and per-solve index builds on every
    step.  This kernel compiles a conjunctive body once — variables
    numbered into int slots, constants interned — and runs it with a
    mutable register array plus an undo trail, probing persistent
    {!Ric_relational.Rix} column indexes cached in a {!Store}.  The
    solution set is identical to the interpreted engine's (only the
    enumeration order may differ); the [naive] oracle in
    {!Match_engine} remains the differential-testing reference. *)

open Ric_relational

type plan
(** A compiled conjunctive body (atoms + inequality side conditions).
    Immutable and domain-safe to share; per-run state lives in the
    {!run} frame. *)

val compile :
  ?extra_vars:string list -> Atom.t list -> (Term.t * Term.t) list -> plan
(** [compile atoms neqs] numbers the variables of [atoms] and [neqs]
    into slots (first occurrence order) and interns every constant.
    [extra_vars] reserves leading slots for variables bound from
    outside the body (probe pivots, initial valuations). *)

val plan_for : Atom.t list -> (Term.t * Term.t) list -> plan
(** Memoising wrapper around {!compile} keyed on the (structural)
    body, so repeated solves of the same query compile once. *)

val encode_terms : plan -> Term.t list -> int array
(** Encode a term list (a head, a probe's pinned arguments) against
    the plan's slot space.
    @raise Invalid_argument on a variable the plan does not know. *)

val init_binds : plan -> Valuation.t -> (int * int) list
(** The (slot, value id) prebindings a valuation induces on a plan;
    bindings for variables outside the plan are dropped (they ride
    along unchanged in {!valuation_of}'s [init]). *)

val unify_encoded : int array -> int array -> (int * int) list option
(** [unify_encoded args row] unifies an encoded argument vector
    against an interned row with no prior bindings: [Some binds] pins
    each slot, [None] on a constant or repeated-slot mismatch (or an
    arity mismatch). *)

val term_ids : int array -> int array -> int array option
(** [term_ids enc regs] grounds encoded terms under the registers;
    [None] if any slot is unbound. *)

val valuation_of : plan -> init:Valuation.t -> int array -> Valuation.t
(** Decode the bound registers back into a valuation on top of
    [init]. *)

(** Compiled view of a cached RHS relation: membership of an interned
    answer row in one hash probe. *)
module Rowset : sig
  type t

  val of_relation : Relation.t -> t
  val mem : t -> int array -> bool
end

(** Cache of {!Ric_relational.Rix} indexes keyed by relation name and
    validated by physical identity of the source relation — the
    persistent replacement for per-solve index builds.  Safe to share
    across domains.

    {b Publication contract (lock-free hit path).}  The cache is a
    persistent map published through an [Atomic.t] snapshot: a hit is
    one atomic read plus a physical-identity check and takes no lock,
    so concurrent search workers sharing a store never contend.  Only
    a miss takes the internal mutex, double-checks the latest
    snapshot, builds, and republishes the whole map with [Atomic.set]
    — a reader holding a stale snapshot at worst repeats the
    double-checked lookup, never observes a wrong index.  Hits and
    misses are counted by [ric_match_index_reuses_total] /
    [ric_match_index_builds_total]; mutex acquisitions (misses only)
    by [ric_store_lock_acquisitions_total]. *)
module Store : sig
  type t

  val create : unit -> t

  val rix : t -> string -> Relation.t -> Rix.t
  (** [rix store name rel] — the cached index for [name] if it was
      built from this very [rel], else a fresh build (replacing the
      stale entry). *)

  val clear : t -> unit
  (** Forget every cached index (a reader holding an old snapshot
      keeps using it). *)
end

val run :
  Store.t ->
  lookup:(string -> Relation.t) ->
  ?extra:(string -> int array list) ->
  ?init:(int * int) list ->
  plan ->
  (int array -> bool) ->
  bool
(** [run store ~lookup plan on_match] enumerates every way of
    embedding the plan's atoms into [lookup]'s relations (each
    extended by the interned [extra] overlay rows for that relation,
    if given) that satisfies every inequality whose sides become
    ground, calling [on_match regs] per solution until it returns
    [true].  [init] prebinds slots.  Join order is fixed up front by
    bound-argument count then indexed cardinality.  Overlay rows also
    present in the base relation may be visited twice — callers use
    the overlay for existence-style checks where duplicates are
    harmless. *)

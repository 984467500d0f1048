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
    Immutable and domain-safe to share; run state lives in a
    {!bound}. *)

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

val pin_of_valuation : plan -> Valuation.t -> int array * int array
(** The [(pin, row)] a valuation induces on a plan, for {!run}: its
    variables' slots and their value ids.  Bindings for variables
    outside the plan are dropped (they ride along unchanged in
    {!valuation_of}'s [init]). *)

val ground : int array -> int array -> int array -> bool
(** [ground enc regs out] grounds encoded terms under the registers
    into [out] (as long as [enc]); [false] if some slot is unbound. *)

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

(** Interned overlay rows of one relation: the small, changing part of
    a checked database, joined alongside the base index.  A stack: the
    valuation search pushes a level's row when it binds the level and
    pops it on the way back. *)
module Overlay : sig
  type t

  val create : unit -> t
  val push : t -> int array -> unit
  (** The row is kept by reference: the caller must not overwrite it
      until it is popped. *)

  val pop : t -> unit
  val iter : (int array -> unit) -> t -> unit
end

type bound
(** A plan bound to its row sources — per atom, the base index and
    the overlay, resolved once — with the scratch registers its runs
    reuse.  Single-owner: not domain-safe, and two runs of one [bound]
    must not nest. *)

val bind : ?overlay:(string -> Overlay.t) -> plan -> rix:(string -> Rix.t) -> bound
(** [bind plan ~rix ~overlay] resolves each atom's relation once: its
    base index [rix rel] and its overlay [overlay rel] (none when
    omitted).  Overlays are read at every run, so rows pushed after
    [bind] are joined. *)

val run : bound -> pin:int array -> row:int array -> (int array -> bool) -> bool
(** [run b ~pin ~row on_match] unifies the encoded arguments [pin]
    with the interned [row] (both [[||]] for no prebinding; [false] on
    a mismatch), then enumerates every way of embedding the plan's
    atoms into their sources (base index ∪ overlay rows) that
    satisfies every inequality whose sides become ground, calling
    [on_match regs] per solution until it returns [true].  Join order
    is fixed per run by bound-argument count, then base-plus-overlay
    cardinality, comparing ints only.  Overlay rows also present in
    the base relation may be visited twice — callers use the overlay
    for existence-style checks where duplicates are harmless.
    [regs] is the bound's scratch: read it inside [on_match] only. *)

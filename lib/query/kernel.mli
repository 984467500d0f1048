(** Compiled match kernel: slot-addressed plans over interned rows.

    The interpreted {!Match_engine} pays for boxed value compares,
    string-map valuation binds and per-solve index builds on every
    step.  This kernel compiles a conjunctive body once — variables
    numbered into int slots, constants interned — and runs it with a
    mutable register array plus an undo trail, probing each relation's
    own column index ({!Ric_relational.Relation.bucket}), built on the
    relation at its first probe and kept as long as the relation.  The
    solution set is identical to the interpreted engine's (only the
    enumeration order may differ); the [naive] oracle in
    {!Match_engine} remains the differential-testing reference.

    {b Index counters.}  [ric_match_index_builds_total] counts column
    indexes built: one per relation and column, at the column's first
    probe.  [ric_match_index_reuses_total] counts atoms {!bind}ed to a
    relation that already has a built column, i.e. joins that find
    the relation's index from an earlier join in place.  A relation
    that is only scanned, never probed, counts in neither. *)

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
    answer row in one hash probe.  Built from the relation's interned
    rows, nothing interned again. *)
module Rowset : sig
  type t

  val of_relation : Relation.t -> t
  val mem : t -> int array -> bool
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
(** A plan bound to its row sources — per atom, the base relation and
    the overlay, resolved once — with the scratch registers its runs
    reuse.  Single-owner: not domain-safe, and two runs of one [bound]
    must not nest. *)

val bind :
  ?overlay:(string -> Overlay.t) -> plan -> lookup:(string -> Relation.t) -> bound
(** [bind plan ~lookup ~overlay] resolves each atom's relation once:
    its base relation [lookup rel] and its overlay [overlay rel] (none
    when omitted).  Overlays are read at every run, so rows pushed
    after [bind] are joined. *)

val run : bound -> pin:int array -> row:int array -> (int array -> bool) -> bool
(** [run b ~pin ~row on_match] unifies the encoded arguments [pin]
    with the interned [row] (both [[||]] for no prebinding; [false] on
    a mismatch), then enumerates every way of embedding the plan's
    atoms into their sources (base relation ∪ overlay rows) that
    satisfies every inequality whose sides become ground, calling
    [on_match regs] per solution until it returns [true].  An atom
    with a ground argument reads the base relation's bucket for it,
    otherwise all its rows.  Join order
    is fixed per run by bound-argument count, then base-plus-overlay
    cardinality, comparing ints only.  Overlay rows also present in
    the base relation may be visited twice — callers use the overlay
    for existence-style checks where duplicates are harmless.
    [regs] is the bound's scratch: read it inside [on_match] only. *)

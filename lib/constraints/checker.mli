(** The containment-constraint checker of the valuation search and of
    the service's write path: the delta-sized replacement for
    {!Containment.holds_all}.

    The Σ₂ᵖ search of Theorem 3.6 re-establishes [(D ∪ μ(T), Dm) ⊨ V]
    after every tuple it adds.  [create] hoists everything that is
    invariant across those steps — each CC's RHS projection against
    the (immutable) master, frozen both as a relation and as a set of
    interned rows; a compiled kernel plan per LHS disjunct; per-atom
    delta probes; and an index from relation names to the CCs reading
    them — so a step only joins.

    Checked databases are always split as [base ∪ delta]: [base] is the
    large fixed part, probed through its relations' own column indexes
    (built once per relation and kept on it, so consecutive checks
    over one [base] index it once), [delta] the small growing part,
    joined as an interned overlay.  Every check names the first
    violated constraint (its [cc_name]) in declaration order, or
    returns [None] when every constraint holds — the boolean check is
    [= None].

    LHS queries without a UCQ form (FO, FP) or with unsafe disjuncts
    are evaluated in full against the cached RHS, so they raise exactly
    where {!Containment.holds_all} would.  Domain-safe: relation
    indexes and the interner serialise internally, so one checker may
    be shared across domains; a {!frame} or a {!gen} made from it has
    one owner. *)

open Ric_relational

type t

val create : master:Database.t -> Containment.t list -> t

val check : t -> base:Database.t -> delta:Database.t -> string option
(** Full check: the first CC violated by [base ∪ delta], in
    declaration order.  No precondition. *)

val check_adds :
  t ->
  base:Database.t ->
  delta:Database.t ->
  added:(string * Tuple.t) list ->
  string option
(** Delta check: as {!check}, given that [base ∪ delta] is a state
    that satisfied every CC plus the [added] [(rel, tuple)]s inserted.
    They may sit in [base] or in [delta], and listing one the old state
    already held costs a probe, not soundness.  Only the CCs reading a
    relation of [added] are touched, found through the relation index,
    and UCQ-form CCs only through the joins that use an added tuple:
    for monotone constraints every new LHS answer does, and the added
    tuple's probe, run against the whole of [base ∪ delta], finds it.
    A CC without a UCQ form is evaluated once per call, however many
    tuples were added. *)

val check_add :
  t ->
  base:Database.t ->
  delta:Database.t ->
  rel:string ->
  tuple:Tuple.t ->
  string option
(** [check_adds ~added:[ (rel, tuple) ]]: the search's per-step
    check. *)

(** {2 Checking over an interned overlay}

    The valuation search checks [base ∪ μ(T)] after every tuple it
    adds.  A {!frame} holds [base] and the extension as interned
    overlay rows per relation, which the search pushes and pops itself;
    each check then joins over the base's relations and the overlay
    directly, with its plans bound to both once per frame.  No
    tuple is interned, and no database built, per check. *)

type frame
(** One base database, an overlay of interned rows per relation, and
    the plans bound to them.  Single-owner: not domain-safe. *)

val frame : t -> base:Database.t -> frame
(** A frame over [base] with an empty overlay. *)

val overlay : frame -> string -> Ric_query.Kernel.Overlay.t
(** The overlay rows of one relation: what the caller pushes a row
    into before checking it, and pops after. *)

val check_frame : frame -> string option
(** {!check} of [base ∪ overlay]. *)

type watch
(** The CCs reading one relation, bound in a frame. *)

val watch : frame -> generated:bool -> string -> watch
(** [watch f ~generated rel]: the CCs whose LHS reads [rel], bound in
    [f] (once per frame and relation).  With [generated], the generator
    CCs of [rel] are left out: a tuple {!generate} produced satisfies
    each of them, and they read nothing else. *)

val check_row : watch -> int array -> string option
(** [check_row w row]: {!check_add} of the interned [row], already
    pushed into the overlay of [w]'s relation, given that [base ∪
    overlay] without it satisfied every CC (or every CC but [w]'s
    generators, for a [~generated] watch, when the row came from
    {!generate}).  It is the same delta check as {!check_adds}, over
    the frame instead of a [delta] database, so it names the same CC
    as {!check_add}. *)

(** {2 Candidate generation}

    A {e generator} CC is one whose normalised LHS is a single atom with
    no inequality: an IND, possibly with constants or repeated variables
    acting as a selection, projecting onto [p(Dm)] or [empty].  Whether
    a tuple violates it depends on that tuple alone — it matches the
    atom and its head escapes the RHS — so rather than test the
    candidates of a tableau atom against it, the search draws them from
    its RHS. *)

type gen
(** One tableau atom's candidate enumeration, compiled against the
    generator CCs of its relation.  Immutable once built: the caches it
    fills on first use (an RHS's column index, a list's value
    positions) are published atomically, so domains may share it. *)

val generator :
  t -> slot:(string -> int) -> Ric_query.Atom.t -> (string * Value.t list) list -> gen
(** [generator t ~slot a doms] enumerates, in [doms] order, the
    variables of [a] listed there over their candidate lists; [a]'s
    other variables are read from the registers {!generate} is given.
    [slot] numbers every variable of [a] into that register file.  The
    generator CCs that can match [a] are compiled in: those whose
    constants clash with [a]'s are left out. *)

val product : slot:(string -> int) -> (string * Value.t list) list -> gen
(** The plain product of [doms], with no generator: every variable
    ranges over its whole list. *)

val sources : gen -> string list
(** The generator CCs compiled into [gen], in declaration order; [[]]
    for a plain product. *)

val generate : gen -> int array -> (unit -> bool) -> bool
(** [generate g regs visit] writes into [regs] (value ids, indexed by
    slot) each candidate of the product — outermost variable first,
    each in its list's order — whose atom tuple satisfies every
    generator CC of [g], skipping the others, and calls [visit] on
    each; stops at the first [true] and says whether there was one.
    [regs] must hold the atom's other variables on entry; [generate]
    writes only the slots of the variables it enumerates.
    Exactly the product candidates a {!check_add} would not reject for
    a generator CC, in the same order.  A variable a matching
    generator's head covers is drawn from the RHS rows agreeing with
    the columns already bound (one index probe per drawn variable and
    node), so the work is the candidates yielded plus that probe —
    except where no column is bound yet and the RHS is at least half
    as long as the variable's list: that list is filtered, one probe
    per value, stopping with the visit. *)

val mem_answer :
  t -> base:Database.t -> delta:Database.t -> Ric_query.Lang.t -> Tuple.t -> bool
(** [tuple ∈ q(base ∪ delta)], by one head-bound existence probe per
    UCQ disjunct: the head is unified with [tuple] and the body joined
    over [base]'s relations plus [delta] as an overlay — no answer
    set is materialised.  FO/FP queries and unsafe disjuncts are
    evaluated in full, so they raise exactly where [Lang.eval]
    would. *)

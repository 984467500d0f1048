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
    large fixed part (its column indexes are built once and cached),
    [delta] the small growing part, joined as an interned overlay.
    Every check names the first violated constraint (its [cc_name]) in
    declaration order, or returns [None] when every constraint holds —
    the boolean check is [= None].  The index store lives as long as
    the checker, so consecutive checks over one [base] (a search, or
    one write's closure check and revalidations) index it once.

    LHS queries without a UCQ form (FO, FP) or with unsafe disjuncts
    are evaluated in full against the cached RHS, so they raise exactly
    where {!Containment.holds_all} would.  Domain-safe: the index store
    and the interner serialise internally, so one checker may be shared
    across domains. *)

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

val check_generated :
  t ->
  base:Database.t ->
  delta:Database.t ->
  rel:string ->
  tuple:Tuple.t ->
  string option
(** {!check_add} for a tuple {!generate} produced: the generator CCs of
    [rel] are skipped, since the tuple satisfies each of them and they
    read nothing else.  It names the same CC as {!check_add}. *)

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
    generator CCs of its relation.  Immutable; domain-safe. *)

val generator : t -> Ric_query.Atom.t -> (string * Value.t list) list -> gen
(** [generator t a doms] enumerates, in [doms] order, the variables of
    [a] listed there over their candidate lists; [a]'s other variables
    are read from the valuation {!generate} is given.  The generator CCs
    that can match [a] are compiled in: those whose constants clash
    with [a]'s are left out. *)

val product : (string * Value.t list) list -> gen
(** The plain product of [doms], with no generator: every variable
    ranges over its whole list. *)

val sources : gen -> string list
(** The generator CCs compiled into [gen], in declaration order; [[]]
    for a plain product. *)

val generate :
  gen -> Ric_query.Valuation.t -> (Ric_query.Valuation.t -> bool) -> bool
(** [generate g mu visit] visits [mu] extended by each candidate of the
    product — outermost variable first, each in its list's order —
    whose atom tuple satisfies every generator CC of [g], skipping the
    others; stops at the first [true] and says whether there was one.
    Exactly the product candidates a {!check_add} would not reject for
    a generator CC, in the same order.  A variable a matching
    generator's head covers is drawn from the RHS rows agreeing with
    the columns already bound (an index probe), so the work is the
    candidates yielded plus one probe per drawn variable and node —
    except where no column is bound yet and the RHS is at least half
    as long as the variable's list: that list is filtered, one probe
    per value, stopping with the visit. *)

val drop_indexes : t -> unit
(** Forget the cached indexes of the bases checked so far.  A checker
    kept across changing bases (a session's, across writes) calls this
    when done with one, so it never pins an index of a database the
    caller has moved past; the next check rebuilds what it needs. *)

val mem_answer :
  t -> base:Database.t -> delta:Database.t -> Ric_query.Lang.t -> Tuple.t -> bool
(** [tuple ∈ q(base ∪ delta)], by one head-bound existence probe per
    UCQ disjunct: the head is unified with [tuple] and the body joined
    over [base]'s cached indexes plus [delta] as an overlay — no answer
    set is materialised.  FO/FP queries and unsafe disjuncts are
    evaluated in full, so they raise exactly where [Lang.eval]
    would. *)

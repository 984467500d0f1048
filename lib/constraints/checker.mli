(** The containment-constraint checker of the valuation search: the
    per-step replacement for {!Containment.holds_all}.

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
    Both entry points name the first violated constraint (its
    [cc_name]) in declaration order, or return [None] when every
    constraint holds — the boolean check is [= None].

    LHS queries without a UCQ form (FO, FP) or with unsafe disjuncts
    are evaluated in full against the cached RHS, so they raise exactly
    where {!Containment.holds_all} would.  Domain-safe: the index store
    and the interner serialise internally, so one checker may be shared
    by the parallel search's worker domains. *)

open Ric_relational

type t

val create : master:Database.t -> Containment.t list -> t

val check : t -> base:Database.t -> delta:Database.t -> string option
(** Full check: the first CC violated by [base ∪ delta], in
    declaration order.  No precondition. *)

val check_add :
  t ->
  base:Database.t ->
  delta:Database.t ->
  rel:string ->
  tuple:Tuple.t ->
  string option
(** Delta check: as {!check}, given that [base ∪ delta] is a state
    that satisfied every CC plus [tuple] inserted into [rel] ([delta]
    contains it).  Only the CCs reading [rel] are touched, and
    UCQ-form CCs only through the joins that use the inserted tuple:
    for monotone constraints every new LHS answer must. *)

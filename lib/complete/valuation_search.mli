(** Pruned enumeration of valid tableau valuations over the active
    domain — the engine behind both deciders.

    A {e valid} valuation [μ] (Section 3.2) draws each variable's
    value from its [adom(y)] and observes the tableau's inequalities.
    The search instantiates the tableau atom by atom; after each atom
    it checks the supplied containment constraints against either the
    accumulated extension alone ([`Delta_only], condition C3 for INDs)
    or the base database plus the extension ([`Against_base D],
    condition C2).  Because the constraint languages are monotone, a
    violation can never be repaired by binding more variables, so the
    whole subtree is pruned.

    The check is the caller's {!Ric_constraints.Checker}, built once per
    decide over its constraints (or kept by a session across its
    decides) and shared by every search of that decide: what it
    caches — each CC's RHS, the index of the last base
    per relation (rebuilt when the base changes), and for the most
    recent candidate lists (keyed by the list's physical identity,
    which the cache keeps alive) each list's value positions — holds
    whatever tableau, base and active domain a search is given.  The
    search runs its full check once at the root (the base database, or
    the empty one) unless the base is known closed ([`Closed_base]);
    when the root satisfies every constraint, each step runs only the
    delta check — the constraints reading the grown
    relation, through the joins that use the new tuple — and otherwise
    each step runs the full check.

    {b Search by join.}  Once the root holds, each level's candidates
    are not the whole product of its unbound variables' [adom(y)]
    lists: they are drawn from the level's {e generator} CCs — those
    whose normalised LHS is one atom with no inequality, an IND whose
    constants and repeated variables may select
    ({!Ric_constraints.Checker.generate}).
    - Soundness: with the root consistent and every accepted step
      keeping the state so, a new tuple [t] of [R] violates a generator
      CC [R(x̄) ⇒ p] iff [t] matches [R(x̄)] and its head escapes [p] —
      the only new LHS answer is [t]'s own.  So a product candidate the
      generation leaves out is exactly one the parent's [check_add]
      would have rejected for a generator, and every candidate it
      yields satisfies all of them; the per-step check then covers the
      other CCs only, and names the same first violated CC as a check
      of all of them would.
    - Order: the generation enumerates the same variables in the same
      level order, each over its candidate list in list order, only
      skipping values (a drawn variable's RHS values are put back in
      [adom(y)] order).  The surviving sequence is therefore the
      parent's, node for node: visits, counterexamples and witnesses
      are the same, and only the ticks and prunes of the skipped
      candidates are gone.
    When the root fails, every level is the plain product and each step
    runs the full check, so an unsafe LHS still raises where it did.

    {b Slot-addressed state.}  {!compile} fixes, once per (tableau,
    active domain, checker), everything a run repeats: the levels, a
    register slot per variable, each level's generator and product,
    and the inequality schedule.  A run keeps its state in three
    places, with these invariants:
    - {e Registers}: the valuation is an [int array] of interned value
      ids indexed by slot.  The plan fixes which level binds each slot,
      and only that level's generator writes it, so backtracking only
      overwrites — no undo trail.  An inequality is a pair of slots (or
      interned constants) checked at the level that binds its later
      side, after that level's budget tick.
    - {e Overlay}: the extension [μ(T)] is kept as interned rows, one
      per bound level, in the checker's {!Ric_constraints.Checker.frame}
      overlay of the level's relation: a level pushes its row before
      checking it and pops it on the way back.  The delta check joins
      the row against the base's cached indexes and the overlay
      directly; only a CC without a UCQ form (FO/FP, unsafe) still
      materialises [base ∪ μ(T)].
    - {e Leaves}: [visit] receives a {!leaf}, from which the caller
      reads variable values and, only for the leaves it keeps,
      materialises a {!Ric_query.Valuation.t} or the database [μ(T)].
    Why the order does not depend on this representation: the levels
    and each level's candidate order (its generator's) are fixed by
    the tableau, the active domain and the checker alone; a register
    holds exactly the value a valuation map would; and a check names
    the first violated CC in declaration order, whatever order the
    overlay holds its rows in (duplicate rows only repeat a join).  So
    the steps, visits, counterexamples, witnesses and explain profiles
    are those of the same search over valuation maps and databases. *)

open Ric_relational
open Ric_query
open Ric_constraints

type t
(** A compiled search of one tableau over one active domain, checked by
    one checker.  Reusable across runs and bases; single-owner (a run
    uses it, runs must not nest). *)

val compile : checker:Checker.t -> adom:Adom.t -> Tableau.t -> t

type leaf
(** A valid valuation a run reached, with its extension.  Valid only
    during the [visit] call that receives it. *)

val value : leaf -> string -> Value.t option
(** A variable's value; [None] for a variable no atom binds. *)

val tuple : leaf -> Term.t list -> Tuple.t
(** Ground the terms (a summary, say) under the leaf's valuation.
    @raise Invalid_argument on a variable no atom binds. *)

val valuation : leaf -> Valuation.t
(** The valuation [μ], materialised. *)

val extension : leaf -> Database.t
(** The database [Δ = μ(T)], materialised. *)

val iter :
  ?budget:Budget.t ->
  ?profile:Ric_obs.Profile.t ->
  ?on_prune:(unit -> unit) ->
  t ->
  mode:[ `Against_base of Database.t | `Closed_base of Database.t | `Delta_only ] ->
  (leaf -> bool) ->
  bool
(** [iter s ~mode visit] calls [visit] on every valid valuation whose
    extension passes the constraint check; stops early when [visit]
    returns [true] and reports whether any visit did.

    [`Against_base D] checks [D ∪ μ(T)] and [`Delta_only] [μ(T)]
    alone; both first run the full check at the root.
    [`Closed_base D] checks [D ∪ μ(T)] too, but starts directly on
    delta checks and generated candidates: its precondition is that
    every CC of the checker holds on [D].  RCDP's [D] meets it by
    contract — [(D, Dm) ⊨ V] — and the checker's CCs are those of
    [V], so the root check could only answer [None]; skipping it
    spares the only step whose cost grows with [D] rather than with
    the search (it joins every CC's LHS over the whole base).  On a
    base that breaks the precondition the search is unsound: it may
    accept extensions that the full check would reject.

    [budget]
    (default {!Budget.unlimited}) is checked on entry and ticked once
    per candidate atom instantiation, so an exhausted budget aborts
    the search with {!Budget.Exhausted} before doing any work.

    [profile] (explain mode) mirrors every tick as a per-level step in
    the profile, records where each level's candidates come from (its
    generator CCs, or ["adom"]), and attributes each pruned branch to
    the containment constraint that cut it (the first one the check
    names); partial counts are merged even when the budget exhausts
    mid-search.
    Omitted, the only cost is one option match per candidate. *)

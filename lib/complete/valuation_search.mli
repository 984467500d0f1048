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
    decide over its constraints and shared by every search of that
    decide: what it caches — each CC's RHS, the index of the last base
    per relation (rebuilt when the base changes), and for the most
    recent candidate lists (keyed by the list's physical identity,
    which the cache keeps alive) each list's value positions — holds
    whatever tableau, base and active domain a search is given.  The
    search runs its full check once at the root (the base database, or
    the empty one); when the root satisfies every constraint, each step
    runs only the delta check — the constraints reading the grown
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
    runs the full check, so an unsafe LHS still raises where it did. *)

open Ric_relational
open Ric_query
open Ric_constraints

val iter_valid :
  ?budget:Budget.t ->
  ?profile:Ric_obs.Profile.t ->
  checker:Checker.t ->
  mode:[ `Against_base of Database.t | `Delta_only ] ->
  adom:Adom.t ->
  ?on_prune:(unit -> unit) ->
  Tableau.t ->
  (Valuation.t -> Database.t -> bool) ->
  bool
(** [iter_valid ~checker ~mode ~adom tab visit] calls
    [visit μ Δ] — with [Δ = μ(T)] — for every valid valuation whose
    extension passes the constraint check; stops early when [visit]
    returns [true] and reports whether any visit did.  [budget]
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

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

    The check is {!Ric_constraints.Checker}'s.  The search runs its
    full check once at the root (the base database, or the empty one);
    when the root satisfies every constraint, each step runs only the
    delta check — the constraints reading the grown relation, through
    the joins that use the new tuple — and otherwise each step runs the
    full check.

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
  master:Database.t ->
  ccs:Containment.t list ->
  mode:[ `Against_base of Database.t | `Delta_only ] ->
  adom:Adom.t ->
  ?on_prune:(unit -> unit) ->
  Tableau.t ->
  (Valuation.t -> Database.t -> bool) ->
  bool
(** [iter_valid ~master ~ccs ~mode ~adom tab visit] calls
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

val iter_valid_par :
  ?budget:Budget.t ->
  ?profile:Ric_obs.Profile.t ->
  domains:int ->
  master:Database.t ->
  ccs:Containment.t list ->
  mode:[ `Against_base of Database.t | `Delta_only ] ->
  adom:Adom.t ->
  ?on_prune:(unit -> unit) ->
  Tableau.t ->
  (Valuation.t -> Database.t -> bool) ->
  bool
(** Like {!iter_valid}, but the search tree is explored by up to
    [domains] worker domains stealing subtree tasks from a shared
    lock-free frontier.  The instantiation order is computed once up
    front (the greedy pick depends only on the bound-variable set), so
    the parallel tree is node-for-node the sequential tree: verdicts,
    step totals and prune counts all coincide with {!iter_valid} on
    exhaustive searches.  A worker that pops a task runs its whole
    subtree inline unless the frontier is starved (fewer queued tasks
    than workers), in which case it expands one atom level and pushes
    each surviving child subtree — skewed partitions split below the
    first variable on demand instead of degenerating to one long
    branch ([ric_search_steal_total] counts cross-worker pops).

    [visit] and [on_prune] are serialised under one mutex (prunes are
    batched per task), so rcdp's counting visitors need no changes.
    [profile] recording is per-worker (private arrays, merged once when
    the worker stops); because the parallel tree is node-for-node the
    sequential tree, the merged profile of an exhaustive search equals
    the sequential one (a first-witness exit skips a part of the tree
    that depends on how the workers race).
    The first visit returning [true] cancels the sibling workers
    through a per-call stop flag.  Step accounting uses one shared
    atomic counter ({!Budget.fork_shared}), so the family can never
    overshoot the parent's step cap; the total is folded back into
    [budget] on join, and exhaustion re-raises {!Budget.Exhausted}
    from the coordinator.  A task raising anything else (e.g. an
    injected worker crash) is retried once, then the error is
    re-raised — never a hang.

    With [domains <= 1], no branching level anywhere, or a one-core
    clamp it degrades to {!iter_valid} (zero coordination overhead).
    [domains] partitions the work but never spawns more worker domains
    than [Stdlib.Domain.recommended_domain_count ()] — oversubscribing
    a saturated runtime only costs GC synchronisation; the
    [RIC_SEARCH_FORCE_WORKERS] environment variable overrides the
    clamp for scaling sweeps and concurrency tests. *)

val set_fault_hook : (unit -> unit) -> unit
(** Install the fault-injection hook called at the start of every
    frontier task a parallel worker executes (default: no-op).  The
    service layer points it at its RIC_FAULTS harness (point
    ["search_worker"]) so crash drills can exercise the retry-once /
    structured-error path without a layering cycle. *)

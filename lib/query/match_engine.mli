(** Backtracking homomorphism search — the join engine shared by CQ
    evaluation, datalog rule firing, and FO atom handling.

    Finds all extensions of an initial valuation that map every atom of
    a conjunctive body into the relations supplied by [lookup], subject
    to inequality side conditions.  The body is compiled once into a
    slot-addressed {!Kernel} plan (memoised across calls): atoms are
    ordered greedily (most bound arguments first, then smallest
    relation), and candidate tuples for an atom with a ground argument
    come from the relation's column index
    ({!Ric_relational.Relation.bucket}) instead of a scan — together
    the difference between polynomial joins and a cross product on
    realistic bodies; see the [ablation] bench. *)

open Ric_relational

val solve :
  lookup:(string -> Relation.t) ->
  ?neqs:(Term.t * Term.t) list ->
  ?init:Valuation.t ->
  ?naive:bool ->
  Atom.t list ->
  (Valuation.t -> bool) ->
  bool
(** [solve ~lookup atoms visit] calls [visit] on every valuation (of
    exactly the variables in [atoms] plus [init]) that embeds all
    [atoms] into the instance and satisfies every inequality in [neqs]
    whose two sides are ground at that point.  Enumeration stops as
    soon as [visit] returns [true]; the result reports whether any
    visit did.  Inequalities mentioning variables that never become
    ground are ignored (callers ensure range restriction).
    [~naive:true] bypasses the compiled kernel entirely and runs the
    original interpreted engine in first-atom order with full scans —
    the differential-testing oracle and ablation baseline.  The
    compiled path probes each relation's own column index, so
    consecutive solves over the same relations index them once. *)

val all : lookup:(string -> Relation.t) ->
  ?neqs:(Term.t * Term.t) list ->
  ?init:Valuation.t ->
  Atom.t list ->
  Valuation.t list
(** Materialise every solution. *)

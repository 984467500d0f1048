(** Normalising a set of containment constraints: dropping the ones
    the rest of the set provably implies.  Three sound
    simplifications:

    - a constraint whose left-hand query is unsatisfiable always
      holds — drop it;
    - duplicate constraints (same projection target, equivalent
      inequality-free CQ left-hand sides) — keep one;
    - subsumption: if [q1 ⊑ q2] (Chandra–Merlin) and both point at the
      same target, then [q2 ⊆ p] implies [q1 ⊆ p] — drop the
      subsumed one.

    Constraints this module cannot analyse (UCQ/∃FO⁺/FO/FP left-hand
    sides, or CQs with inequalities) are kept untouched, and a pair
    the containment test rejects ([Invalid_argument], e.g. an unsafe
    query) counts as "not subsumed".

    This is the one constraint-subsumption routine: {!Ric_mining.Mine}
    reduces its accepted constraints to a minimal cover with it. *)

open Ric_relational

val normalize : Schema.t -> Containment.t list -> Containment.t list
(** Sound: a database satisfies the result iff it satisfies the input
    (property-tested).  The survivors keep their input order. *)

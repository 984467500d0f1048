(** The active domain [Adom] of a relative-completeness instance
    (Sections 3.2 and 4.2).

    [Adom] consists of (a) every constant appearing in [D], [Dm], [Q]
    or [V], and (b) a set [New] of distinct fresh values — one per
    variable of the query tableau and of the tableau representations
    of the constraint queries.  The paper's small-model arguments
    (Propositions 3.3, 4.2 and their corollaries) show that checking
    valuations over [Adom] suffices; this module materialises that
    domain and hands out the per-variable candidate sets [adom(y)]. *)

open Ric_relational

type t

val build :
  ?db:Database.t ->
  ?schemas:Schema.t list ->
  master:Database.t ->
  cc_constants:Value.t list ->
  query_constants:Value.t list ->
  fresh_count:int ->
  unit ->
  t
(** [fresh_count] — how many [New] values to mint (callers pass the
    number of distinct variables in the query tableau plus the
    constraint tableaux).  Fresh values are guaranteed distinct from
    every constant of [db], [master], [cc_constants],
    [query_constants], and every finite-domain value of [schemas]
    (the paper's [d_f ⊆ Adom] proviso).

    The constants are listed in increasing {!Value.compare} order —
    the order a search draws candidates in, so the order that decides
    which counterexample is reported.  [db]'s and [master]'s come from
    their relations' cached {!Relation.values}, and a list passed
    already sorted is used as it is, so building costs a merge, linear
    in the result, rather than a sort of every value of [D]. *)

val constants : t -> Value.t list
(** Part (a): the known constants, in increasing {!Value.compare}
    order. *)

val fresh : t -> Value.t list
(** Part (b): the [New] values. *)

val all : t -> Value.t list
(** [constants ∪ fresh]. *)

val candidates : t -> Domain.t -> Value.t list
(** [adom(y)] for a variable of the given effective domain: the whole
    finite domain for [Finite], {!all} for [Infinite]. *)

val size : t -> int

val referenced_master_constants :
  master:Database.t -> Ric_constraints.Containment.t list -> Value.t list
(** The constants of the master relations some CC's RHS projects from,
    sorted and deduplicated.  Master constants are observable only
    through those projections; every other one is interchangeable with
    a fresh value (genericity), so the deciders leave them out of
    [Adom].  Read from the relations' cached {!Relation.values}: a
    merge, not a sort. *)

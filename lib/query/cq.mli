(** Conjunctive queries with equality and inequality (Section 2.1,
    language (a)).

    A CQ is built from relation atoms, [=] and [≠], closed under
    conjunction and existential quantification.  We keep the flat
    normal form: a head (output terms), a bag of relation atoms, and
    lists of equalities and inequalities; all non-head variables are
    implicitly existential.

    Safety: after equality elimination, every variable occurring in
    the head or in an inequality must also occur in a relation atom
    (range restriction).  {!eval} raises [Invalid_argument] otherwise. *)

open Ric_relational

type t = {
  head : Term.t list;
  atoms : Atom.t list;
  eqs : (Term.t * Term.t) list;
  neqs : (Term.t * Term.t) list;
}

val make :
  ?eqs:(Term.t * Term.t) list ->
  ?neqs:(Term.t * Term.t) list ->
  head:Term.t list ->
  Atom.t list ->
  t

val boolean :
  ?eqs:(Term.t * Term.t) list ->
  ?neqs:(Term.t * Term.t) list ->
  Atom.t list ->
  t
(** A Boolean query: empty head; the answer is [{()}] or [∅]. *)

val vars : t -> string list
(** All variables, in order of first occurrence. *)

val head_vars : t -> string list

val constants : t -> Value.t list

val arity : t -> int
(** Head width. *)

val rename_vars : (string -> string) -> t -> t

val rename_apart : prefix:string -> t -> t
(** Rename every variable to [prefix ^ i], for combining queries
    without capture. *)

type norm = {
  n_head : Term.t list;
  n_atoms : Atom.t list;
  n_neqs : (Term.t * Term.t) list;
}
(** Equality-free form: the substitution induced by [eqs] has been
    applied, trivially-true inequalities dropped. *)

val normalize : t -> norm option
(** [None] when the equalities/inequalities are contradictory on
    ground terms (the query is unsatisfiable outright). *)

val eval : Database.t -> t -> Relation.t
(** Set semantics.  The answers are collected, then sorted into a
    relation once.
    @raise Invalid_argument if unsafe (see above). *)

val holds : Database.t -> t -> bool
(** [holds d q] — is [eval d q] nonempty?  Short-circuits. *)

val var_domains : Schema.t -> t -> (string * Domain.t) list
(** Effective domain of each variable: finite if the variable occurs
    in any finite-domain column (intersection if several), infinite
    otherwise.  Variables not occurring in any atom are infinite. *)

val satisfiable : Schema.t -> t -> bool
(** Does some database make the query nonempty?  Decides exactly,
    honouring [=], [≠], and finite attribute domains (backtracking
    over finite-domain variables; fresh distinct values elsewhere). *)

val contained_in : Schema.t -> t -> t -> bool
(** Chandra–Merlin containment test [q1 ⊆ q2] for inequality-free
    CQs.  @raise Invalid_argument if either query has inequalities,
    or if [q2] is unsafe (see {!eval}). *)

val pp : Format.formatter -> t -> unit

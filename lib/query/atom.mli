(** Relation atoms [R(t1, ..., tk)]. *)

open Ric_relational

type t = {
  rel : string;
  args : Term.t list;
}

val make : string -> Term.t list -> t

val arity : t -> int

val vars : t -> string list
(** Variables in order of first occurrence, deduplicated. *)

val constants : t -> Value.t list

val constants_conform : Schema.t -> t -> bool
(** Does every constant of the atom lie in its column's domain?  Only
    then can an instantiation of it be added to a database of the
    schema. *)

val apply : (string -> Term.t option) -> t -> t
(** [apply subst a] replaces each variable [x] by [subst x] when
    defined. *)

val compare : t -> t -> int

val equal : t -> t -> bool

val pp : Format.formatter -> t -> unit

(** Unions of conjunctive queries [Q1 ∪ ... ∪ Qk] (Section 2.1,
    language (b)).  All disjuncts must share one head width. *)

open Ric_relational

type t = Cq.t list

val make : Cq.t list -> t
(** @raise Invalid_argument on an empty list or mismatched head
    widths. *)

val arity : t -> int

val eval : Database.t -> t -> Relation.t
(** The union of the disjuncts' {!Cq.eval}s. *)

val holds : Database.t -> t -> bool

val satisfiable : Schema.t -> t -> bool

val vars : t -> string list

val constants : t -> Value.t list

val rename_apart : prefix:string -> t -> t
(** Rename so that distinct disjuncts share no variables. *)

val contained_in : Schema.t -> t -> t -> bool
(** UCQ containment for inequality-free queries: [⋃Qi ⊆ ⋃Pj] iff each
    [Qi] is contained in some [Pj] — the Sagiv–Yannakakis criterion. *)

val pp : Format.formatter -> t -> unit

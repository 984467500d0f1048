(** Database instances.

    An instance [D = (I1, ..., In)] of a schema [R]: one relation
    instance per relation schema.  Master data [Dm] is represented with
    the same type — it is just a database that the application treats
    as closed-world (Section 2.1).

    [D ⊆ D'] (containment, {!contained}) holds when [Ij ⊆ I'j] for
    every relation; [D'] is then an {e extension} of [D]. *)

type t

val empty : Schema.t -> t
(** Empty instance of every relation in the schema. *)

val schema : t -> Schema.t

val of_list : Schema.t -> (string * Relation.t) list -> t
(** [of_list sch assoc] — relations absent from [assoc] are empty.
    @raise Invalid_argument on an unknown relation name or if some
    tuple does not conform to its relation schema. *)

val relation : t -> string -> Relation.t
(** @raise Not_found on an unknown relation name. *)

val set_relation : t -> string -> Relation.t -> t
(** @raise Invalid_argument on an unknown name or non-conforming
    tuples. *)

val add_tuple : t -> string -> Tuple.t -> t
(** @raise Invalid_argument as for {!set_relation}. *)

val check_tuple : Schema.t -> string -> Tuple.t -> unit
(** Raise what {!add_tuple} raises for a tuple of the named relation
    that does not conform to the schema; return otherwise. *)

val add_tuples : t -> (string * Tuple.t) list -> t
(** {!add_tuple} of every pair, in bulk: all pairs are validated first
    (the first bad one raises what {!add_tuple} raises for it), then
    each relation merges its new tuples in one {!Relation.union}. *)

val contained : t -> t -> bool
(** [contained d d'] — the paper's [D ⊆ D']; both instances must be
    over the same schema (checked by relation names). *)

val union : t -> t -> t
(** Relation-wise union; schemas must agree on names and arities. *)

val equal : t -> t -> bool

val total_tuples : t -> int
(** Sum of all relation cardinalities. *)

val is_empty : t -> bool

val adom : t -> Value.t list
(** Every constant occurring in the instance, deduplicated, in
    increasing {!Value.compare} order: a merge of the relations'
    cached {!Relation.values}, linear in the result per relation. *)

val fold : (string -> Relation.t -> 'a -> 'a) -> t -> 'a -> 'a

val pp : Format.formatter -> t -> unit

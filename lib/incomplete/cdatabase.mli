(** C-databases: one c-table per relation of a schema, with worlds,
    certain answers and possible answers — the possible-worlds
    semantics behind Section 5's missing-values extension. *)

open Ric_relational
open Ric_query

type t

val make : Schema.t -> Ctable.t list -> t
(** Relations without a table are empty (and certain).
    @raise Invalid_argument on unknown relations, duplicate tables or
    arity mismatches with the schema. *)

val schema : t -> Schema.t

val tables : t -> Ctable.t list

val nulls : t -> string list

val worlds : values:Value.t list -> t -> Database.t list
(** All possible worlds over the value universe, deduplicated.
    Cartesian over the tables' null valuations — keep tables small. *)

val certain_answers : values:Value.t list -> t -> Lang.t -> Relation.t
(** [⋂_{D ∈ worlds} Q(D)].  @raise Invalid_argument if there are no
    worlds (an unsatisfiable global condition everywhere). *)

val possible_answers : values:Value.t list -> t -> Lang.t -> Relation.t
(** [⋃_{D ∈ worlds} Q(D)]. *)

val pp : Format.formatter -> t -> unit

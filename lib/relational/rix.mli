(** The column index of a relation.

    A relation carries its own index: its interned rows
    ({!Relation.rows}) and per-column buckets ({!Relation.bucket}),
    built lazily, column by column, on the relation.  [build] is the
    relation itself, in O(1). *)

type t = Relation.t

val build : Relation.t -> t

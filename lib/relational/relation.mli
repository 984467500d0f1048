(** Relation instances: finite sets of tuples of uniform arity. *)

type t

val empty : t

val of_tuples : Tuple.t list -> t
(** @raise Invalid_argument if the tuples do not all share one arity. *)

val of_int_rows : int list list -> t
(** Convenience: rows of integer constants. *)

val of_str_rows : string list list -> t

val add : Tuple.t -> t -> t
(** Also extends the relation's cached {!values} (see there).
    @raise Invalid_argument on an arity mismatch with existing tuples. *)

val mem : Tuple.t -> t -> bool

val cardinal : t -> int
(** O(1): the count is stored on the relation, not recomputed. *)

val arity : t -> int option
(** Stored arity of the tuples; [None] when empty. *)

val is_empty : t -> bool

val subset : t -> t -> bool
(** [subset a b] — is [a ⊆ b]? *)

val union : t -> t -> t
(** @raise Invalid_argument on an arity mismatch. *)

val diff : t -> t -> t

val inter : t -> t -> t

val equal : t -> t -> bool

val compare : t -> t -> int

val fold : (Tuple.t -> 'a -> 'a) -> t -> 'a -> 'a

val iter : (Tuple.t -> unit) -> t -> unit

val exists : (Tuple.t -> bool) -> t -> bool

val for_all : (Tuple.t -> bool) -> t -> bool

val filter : (Tuple.t -> bool) -> t -> t

val elements : t -> Tuple.t list
(** Tuples in increasing {!Tuple.compare} order. *)

val project : int list -> t -> t
(** Set-semantics projection onto the given columns. *)

val map : (Tuple.t -> Tuple.t) -> t -> t

val values : t -> Value.t list
(** All constants occurring anywhere in the relation, deduplicated, in
    increasing {!Value.compare} order.

    Cached on the relation as a set: the first call computes it — O(m)
    over the interned rows of a packed relation ({!Builder.finish})
    plus a sort of the distinct values, O(m · log v) by folding the
    tuples of a tree-backed one ([m] cells, [v] distinct values) — and
    every call lists it in O(v).  {!add} extends a known set in
    O(arity · log v), and computes a packed relation's first, so the
    first write to a loaded relation keeps it; {!union} of two
    relations with known sets merges them.  A relation grown tuple by
    tuple from {!empty}, and the results of {!diff}, {!inter},
    {!filter}, {!project} and {!map}, compute theirs on first call.
    Safe to call from several domains at once: a racing first call
    computes the same set twice and keeps one. *)

val packed_rows : t -> (Tuple.t array * int array array) option
(** When the relation was built by {!Builder.finish}: its tuples and
    the same rows as {!Intern} id arrays, both in increasing
    {!Tuple.compare} order.  [Rix.build] reuses these arrays directly
    instead of re-interning tuple by tuple.  [None] on the tree
    backing.  Callers must not mutate the arrays. *)

val pp : Format.formatter -> t -> unit

(** Columnar bulk construction: interned cell ids are appended to one
    flat row-major int buffer, and {!Builder.finish} sorts, dedupli-
    cates and packs them into a relation in a single pass — no
    per-tuple boxing, no tree insertion.  This is the ingest fast path
    behind the streaming [.ric] loader. *)
module Builder : sig
  type builder

  val create : unit -> builder

  val add_cell : builder -> int -> unit
  (** Append one {!Intern} id to the currently open row. *)

  val end_row : builder -> unit
  (** Close the open row.  The first closed row fixes the arity.
      @raise Invalid_argument on a width mismatch with the first row
      (formatted exactly like {!add}'s arity error); the offending row
      is discarded and the builder stays usable. *)

  val rows : builder -> int
  (** Rows closed so far (before deduplication). *)

  val finish : builder -> t
  (** Pack everything appended so far into a relation whose iteration
      order is increasing {!Tuple.compare}, indistinguishable from the
      same rows folded through {!add}. *)
end

(** Relation instances: finite sets of tuples of uniform arity.

    One representation: the tuples as a sorted, deduplicated array in
    {!Tuple.compare} order, the same rows as {!Intern} id arrays
    ({!rows}), the memoised constants ({!values}) and a column index
    ({!bucket}) built lazily, column by column, on the first probe.
    The index belongs to the relation: a join over an unchanged
    relation reuses it wherever the relation is bound, and it is
    collected with the relation.  Immutable; safe to share across
    domains.

    A relation is built in bulk ({!of_tuples}, {!of_rows},
    {!Builder}) by one sort; {!add} copies the arrays, O(n), so a loop
    that grows a relation row by row past a few hundred rows should
    collect the rows and build (or {!union}) once instead. *)

type t

val empty : t

val of_tuples : Tuple.t list -> t
(** One sort and one deduplicating pass.
    @raise Invalid_argument if the tuples do not all share one arity
    (the first tuple fixes it; the message is {!add}'s). *)

val of_rows : int array list -> t
(** {!of_tuples} of interned rows: the rows are kept as given, not
    interned again.
    @raise Invalid_argument as {!of_tuples}. *)

val of_int_rows : int list list -> t
(** Convenience: rows of integer constants. *)

val of_str_rows : string list list -> t

val add : Tuple.t -> t -> t
(** O(n): a copy of both arrays with the tuple inserted.  Also extends
    the relation's cached {!values} (see there).
    @raise Invalid_argument on an arity mismatch with existing tuples. *)

val mem : Tuple.t -> t -> bool

val cardinal : t -> int
(** O(1): the count is stored on the relation, not recomputed. *)

val arity : t -> int option
(** Stored arity of the tuples; [None] when empty. *)

val is_empty : t -> bool

val subset : t -> t -> bool
(** [subset a b] — is [a ⊆ b]?  A binary search in [b] per tuple of
    [a]. *)

val union : t -> t -> t
(** The smaller relation merged into the larger: a binary search per
    tuple of the smaller, one copy of the larger.  Returns the larger
    argument itself (index included) when the smaller adds nothing.
    @raise Invalid_argument on an arity mismatch. *)

val diff : t -> t -> t
(** A binary search in the second per tuple of the first; the first
    itself when nothing is removed. *)

val inter : t -> t -> t
(** A binary search in the larger per tuple of the smaller. *)

val equal : t -> t -> bool

val compare : t -> t -> int

val fold : (Tuple.t -> 'a -> 'a) -> t -> 'a -> 'a

val iter : (Tuple.t -> unit) -> t -> unit

val exists : (Tuple.t -> bool) -> t -> bool

val for_all : (Tuple.t -> bool) -> t -> bool

val filter : (Tuple.t -> bool) -> t -> t
(** The relation itself (index included) when every tuple passes. *)

val elements : t -> Tuple.t list
(** Tuples in increasing {!Tuple.compare} order. *)

val project : int list -> t -> t
(** Set-semantics projection onto the given columns. *)

val map : (Tuple.t -> Tuple.t) -> t -> t

val values : t -> Value.t list
(** All constants occurring anywhere in the relation, deduplicated, in
    increasing {!Value.compare} order.

    Cached on the relation as a set: the first call computes it from
    the interned rows — deduplicating ids, then sorting the distinct
    values, O(m · log m) in the relation's own [m] cells whatever the
    size of the intern table — and every call lists it in O(v).
    {!add} extends a known set in O(arity · log v); {!union} merges
    the two sets when either argument knows its own (computing the
    other's), so a write merged into a relation whose constants are
    known keeps them.  A relation grown tuple by tuple from {!empty},
    and the results of {!of_tuples}, {!of_rows}, {!Builder.finish},
    {!diff}, {!inter}, {!filter}, {!project} and {!map}, compute
    theirs on first call.  Safe to call from several domains at once: a
    racing first call computes the same set twice and keeps one. *)

val rows : t -> int array array
(** The tuples as {!Intern} id arrays, in increasing {!Tuple.compare}
    order ([(rows r).(i)] is the [i]-th of {!elements}).  Callers must
    not mutate them. *)

val bucket : t -> int -> int -> int list
(** [bucket r col v] — the indexes into {!rows} of the rows whose
    column [col] holds the value id [v], in decreasing order; [[]]
    when [col] is out of range or [v] absent.  The first probe of a
    column builds its table (one pass over the rows, counted by
    [ric_match_index_builds_total]) and publishes it atomically;
    concurrent first probes build it once. *)

val indexed : t -> bool
(** Whether some column's table is built. *)

val pp : Format.formatter -> t -> unit

(** Columnar bulk construction: interned cell ids are appended to one
    flat row-major int buffer, and {!Builder.finish} sorts and
    deduplicates them into a relation in a single pass — no per-tuple
    boxing, no per-tuple compare sort.  This is the ingest fast path
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

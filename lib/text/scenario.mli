(** The [.ric] scenario format: a small text format describing a
    complete relative-information-completeness instance — schemas,
    master data, a partially closed database, containment constraints
    and queries — so the CLI and tests can run on external files.

    {2 Syntax}

    {v
    # comments run to end of line
    schema Supt(eid, dept, cid).
    schema Flag(node, bit in {0, 1}).      # finite attribute domain
    master DCust(cid, name).

    rows Supt  { (e0, d0, c0) (e0, d0, c1) }.
    rows DCust { (c0, alice) (c1, bob) }.   # bare words are strings,
                                            # bare numbers integers

    # conjunctive queries: identifiers are variables, quoted strings
    # and numbers are constants; '|' separates UCQ disjuncts
    query Q2(c) :- Supt("e0", d, c).
    query Q5(c) :- Supt("e0", d, c) | Supt("e1", d, c).

    # containment constraints: body as in queries, then a projection
    # target over the master data (or `empty`)
    constraint Bound(c) :- Supt(e, d, c) => DCust[0].
    constraint NoLoop(e) :- Supt(e, d, e2), e = e2 => empty.

    # functional dependencies by attribute name (translated to
    # containment constraints via Proposition 2.1)
    fd Key Supt: eid -> dept, cid.

    # rows with missing values: ?name is a labelled null
    crows Supt { (e0, d0, ?who) }.
    v}

    Declaration order: a relation must be declared before rows,
    queries or constraints mention it. *)

open Ric_relational
open Ric_query
open Ric_constraints

type t = {
  db_schema : Schema.t;
  master_schema : Schema.t;
  db : Database.t;
  master : Database.t;
  queries : (string * Lang.t) list;
  ccs : (string * Containment.t) list;
  ctables : Ric_incomplete.Ctable.t list;
      (** rows with labelled nulls, declared with [crows] — the
          Section 5 missing-values extension.  [crows R { (e0, ?who) }.]
          adds a c-table row whose second cell is the null [who].
          Ground [rows] of the same relation are folded into its
          c-table when one exists. *)
}

exception Parse_error of string * int * int
(** message, line, column *)

val parse : ?chunk:int -> string -> t
(** @raise Parse_error on malformed input (with position), including
    semantic errors such as unknown relations or arity mismatches.
    Runs the streaming columnar loader: [rows] cells are interned as
    they are lexed and sorted into {!Ric_relational.Relation} arrays
    by {!Ric_relational.Relation.Builder}, without per-tuple compares.  [chunk] caps the refill size
    (default 64 KiB) — the chunk-boundary differential drives it down
    to one byte to force every token split. *)

val parse_slurp : string -> t
(** The pre-streaming loader — whole-input token list, value-list
    rows, each block validated tuple by tuple and merged by one
    [Database.add_tuples] — kept as the ingest baseline.  Accepts
    exactly the language of {!parse} and builds an equal scenario; the
    loader differential and [bench load] hold it to that. *)

val load : string -> t
(** {!parse} a file through the streaming lexer: memory stays bounded
    by the refill chunk and the packed data, never the file size.
    @raise Sys_error on IO failure. *)

val all_ccs : t -> Containment.t list

val find_query : t -> string -> Lang.t option

val as_cdatabase : t -> Ric_incomplete.Cdatabase.t
(** The database together with its c-table rows, as a c-database for
    the {!Ric_incomplete} world-wise analyses. *)

val pp : Format.formatter -> t -> unit
(** Print a scenario back in the concrete syntax (round-trips through
    {!parse} — property-tested).  Streams: nothing larger than one
    row is ever materialised, whatever the sink. *)

val output : out_channel -> t -> unit
(** {!pp} to a channel and flush — the bounded-memory emission path
    [ric gen] uses for million-tuple files. *)

val pp_named_constraint :
  Format.formatter -> string * Containment.t -> unit
(** One [constraint Name(head) :- body => target.] line, as {!pp}
    prints it — the emission format of the mined-constraint block.
    Only CQ left-hand sides have concrete syntax; anything else prints
    nothing. *)

val with_ccs : t -> (string * Containment.t) list -> t
(** The scenario with its constraint set replaced — e.g. by a mined
    one, so the result can be printed, re-parsed and re-decided. *)

(** JSON encodings of the library's verdicts and data, for the CLI's
    [--json] mode and for piping audits into other tooling. *)

open Ric_relational
open Ric_complete

val value : Value.t -> Json.t

val tuple : Tuple.t -> Json.t

val relation : Relation.t -> Json.t

val database : Database.t -> Json.t
(** [{ "Rel": [[...], ...], ... }] — empty relations omitted. *)

val violation : string * Tuple.t -> Json.t
(** [{"constraint": name, "witness": [...]}]: a named constraint and
    a tuple that breaks it. *)

val not_closed_result : string * Tuple.t -> Json.t
(** [{"verdict": "not_partially_closed", "violation": ...}]: the
    answer when [(D, Dm)] does not satisfy [V], so RCDP is undefined. *)

val unsupported_result : string -> Json.t
(** [{"verdict": "unsupported", "reason": ...}]: the answer for an
    undecidable language combination. *)

val rcdp_verdict : Rcdp.verdict -> Json.t

val rcqp_verdict : Rcqp.verdict -> Json.t

val audit_result : Guidance.audit_result -> Json.t

(** {2 Text renderings of a reply}

    What the one-shot CLI prints: each reads the JSON a decide reply
    carries, so the text says what the service decided. *)

val verdict_name : Json.t -> string
(** The one-word verdict of a ["result"]: its ["verdict"] field
    (["complete"], ["nonempty"], ["not_partially_closed"], ...) or its
    ["audit"] field, and ["timeout:<reason>"] for a timeout. *)

val rejected : Json.t -> bool
(** The result answers no question about the query: the input breaks
    [V] (["not_partially_closed"]) or the language combination is
    undecidable (["unsupported"]). *)

val pp_result : query:string -> Format.formatter -> Json.t -> unit
(** A ["result"] as text: the verdict of [query], with a
    counterexample's extension and new answer, an RCQP reason or an
    audit's tuples to collect printed as {!Ric_relational.Database.pp}
    and {!Ric_relational.Tuple.pp} print them. *)

val pp_profile : query:string -> verdict:string -> Format.formatter -> Json.t -> unit
(** An explain ["profile"] as tables: notes, the step line
    [steps: N  attributed: M (P%)], per-level fan-out, prunes by
    constraint and counters. *)

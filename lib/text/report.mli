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

(** The single-relation encoding of Lemma 3.2.

    For every relational schema [R = (R1, ..., Rn)] there is a single
    relation schema [R], a linear-time function [f_D] on instances and
    a linear-time function [f_Q] on CQs with
    [Q(D) = f_Q(Q)(f_D(D))].  Relations are padded to a uniform width
    and tagged with an extra column holding the source relation's
    name; [f_Q] rewrites each atom [Ri(x̄)] to a padded atom over [R]
    with the tag pinned to [Ri].

    The deciders work on multi-relation tableaux directly; this module
    exists to validate the lemma (see [test/test_query.ml]) and to
    let users normalise inputs if they wish. *)

open Ric_relational

type t

val encode : Schema.t -> t
(** @raise Invalid_argument on an empty schema. *)

val encode_db : t -> Database.t -> Database.t
(** [f_D]. *)

val encode_cq : t -> Cq.t -> Cq.t
(** [f_Q].  @raise Invalid_argument if the query mentions a relation
    outside the encoded schema. *)

val pad_value : Value.t
(** The constant used to fill padded columns. *)

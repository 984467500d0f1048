(** Deterministic pseudo-random instances for the decider tests:
    databases over a configurable schema, master data covering them,
    the INDs they are guaranteed to satisfy, and join-chain
    queries. *)

open Ric_relational
open Ric_query
open Ric_constraints

type config = {
  seed : int;
  relations : int;     (** number of database relations R0, R1, ... *)
  arity : int;         (** uniform arity *)
  tuples : int;        (** tuples per relation *)
  domain : int;        (** values are drawn from 0 .. domain-1 *)
}

val default : config

val schema : config -> Schema.t

val master_schema : config -> Schema.t
(** One master relation [Mi] per database relation, same arity. *)

val database : config -> Database.t

val master_of : config -> Database.t -> Database.t
(** Master data that covers the database: every projection used by
    {!inds} is satisfied, plus some extra mastered rows (so databases
    are strictly partially closed, not saturated). *)

val inds : config -> Ind.t list
(** [Ri[0..k] ⊆ Mi[0..k]] for every relation, on a prefix of
    columns. *)

val chain_query : config -> length:int -> Cq.t
(** A join chain [R0(x0, x1, ...), R0(x1, x2, ...), ...] of the given
    length with head [x0, x_length]. *)

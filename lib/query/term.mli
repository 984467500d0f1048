(** Terms: variables and constants, the building blocks of atomic
    formulas in every language of the paper (CQ, UCQ, ∃FO⁺, FO, FP). *)

open Ric_relational

type t =
  | Var of string
  | Const of Value.t

val var : string -> t

val const : Value.t -> t

val int : int -> t
(** [int n] is [Const (Int n)]. *)

val str : string -> t
(** [str s] is [Const (Str s)]. *)

val compare : t -> t -> int

val equal : t -> t -> bool

val pp : Format.formatter -> t -> unit

(** Constants that populate relations.

    The paper works with two kinds of attribute domains: a countably
    infinite domain [d] and a finite domain [d_f] with at least two
    elements.  Values themselves are untyped constants; which values an
    attribute may hold is governed by {!Domain.t}. *)

type t =
  | Int of int      (** integer constant *)
  | Str of string   (** string constant *)

val compare : t -> t -> int
(** Total order, used by the set/map structures of {!Relation}. *)

val equal : t -> t -> bool

val union_sorted : t list -> t list -> t list
(** [union_sorted a b] merges two lists strictly increasing under
    {!compare} into one, dropping duplicates: [List.sort_uniq compare
    (a @ b)] in O(|a| + |b|).  Tail-recursive. *)

val hash : t -> int

val pp : Format.formatter -> t -> unit
(** [pp] prints integers bare and strings unquoted ([Str "a"] as [a]);
    use {!pp_quoted} when ambiguity matters. *)

val pp_quoted : Format.formatter -> t -> unit
(** Like {!pp} but strings are single-quoted, as in the paper
    ([x = 'c']). *)

val to_string : t -> string

val int : int -> t
(** [int n] is [Int n]. *)

val str : string -> t
(** [str s] is [Str s]. *)

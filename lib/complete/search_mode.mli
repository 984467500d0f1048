(** How the deciders run the valuation search.

    Both modes return identical verdicts and check constraints through
    the same {!Ric_constraints.Checker}; they differ only in how the
    search tree is walked:

    - [Seq] — one domain, depth first.
    - [Par n] — the same tree explored by up to [n] worker domains
      stealing subtree tasks, with first-witness cancellation.

    ["inc"], the name of a retired mode that differed from [Seq] only
    in its constraint checker, still parses — as [Seq] — so older
    command lines, protocol requests and journals stay valid. *)

type t =
  | Seq
  | Par of int  (** worker domain count, [>= 1] *)

val default_domains : int
(** Domain count for the bare ["par"] spelling: 4. *)

val name : t -> string
(** ["seq"] or ["par"] — the stats-counter bucket. *)

val to_string : t -> string
(** ["seq"], ["par:<n>"] — round-trips through {!of_string}. *)

val of_string : string -> (t, string) result
(** Accepts ["seq"], ["inc"] (= [Seq]), ["par"] (= [Par
    default_domains]) and ["par:<n>"] with [n >= 1]. *)

val pp : Format.formatter -> t -> unit

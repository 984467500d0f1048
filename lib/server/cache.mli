(** The verdict cache.

    Entries are keyed by [(session, epoch, kind, constraint-set
    fingerprint, query)] — see {!rcdp_key} — so any database mutation
    moves the session to a fresh epoch and stale verdicts become
    unreachable without any eager scrubbing.  RCQP verdicts depend
    only on [(Q, Dm, V)], never on [D], so their keys omit the epoch
    and they survive every insert.

    Invalidation on insert is {e incremental} rather than
    wholesale, exploiting the monotonicity facts of the paper
    (Sections 3.3/4.3, DESIGN.md):

    - a [Complete] verdict carries over to any admissible (still
      partially closed) extension: every partially closed [D″ ⊇ D′ ⊇ D]
      is also an extension of [D], so [Q(D″) = Q(D) = Q(D′)];
    - an [Incomplete] counterexample [(Δ, t)] can be revalidated
      against the grown [D′] by a constraint check and two answer
      probes — [(D′ ∪ Δ, Dm) ⊨ V], [t ∈ Q(D′ ∪ Δ)], [t ∉ Q(D′)] — far
      cheaper than the Σ₂ᵖ re-decide.  All three are delta-sized: the
      entries migrate only when [D′] is partially closed, which is the
      precondition of a delta check over [Δ]'s tuples not in [D′]
      ({!Ric_constraints.Checker.check_adds}, no full fallback needed:
      only the verdict, not a witness, is wanted); the memberships are
      head-bound probes ({!Ric_constraints.Checker.mem_answer}) with
      [Δ] as an overlay on [D′], whose indexes the session's checker
      built for the write's closure check and keeps until the write
      ends;
    - an insert that breaks partial closure invalidates everything
      epoch-keyed for the session (the deciders are not defined
      there any more).

    {!Service} implements that policy; this module is the store plus
    hit/miss accounting.  No locking here — the service's mutex
    guards it. *)

type kind = K_rcdp | K_rcqp | K_audit | K_mine

type entry = {
  kind : kind;
  query : string;
  result : Ric_text.Json.t;  (** the encoded verdict, replayed on hits *)
  rcdp : Ric_complete.Rcdp.verdict option;
      (** retained for RCDP entries so an insert can carry or
          revalidate them *)
  elapsed_us : int;  (** what the original computation cost *)
  revalidated : bool;
      (** true once the entry has been carried across an insert by
          revalidation rather than recomputation *)
}

type t

val create : unit -> t

val find : t -> string -> entry option
(** Bumps the hit or miss counter. *)

val store : t -> string -> entry -> unit

val remove : t -> string -> unit

val fold_prefix : t -> prefix:string -> ('a -> string -> entry -> 'a) -> 'a -> 'a

val remove_prefix : t -> prefix:string -> int
(** Number of entries dropped. *)

val note_carried : t -> unit

val note_dropped : t -> int -> unit

type stats = {
  entries : int;
  hits : int;
  misses : int;
  carried : int;  (** entries kept across an insert via monotonicity *)
  dropped : int;  (** entries invalidated by an insert *)
}

val stats : t -> stats

(** {2 Keys}

    Key components are percent-escaped (['%'] → ["%25"], ['/'] →
    ["%2F"]) before being joined with ['/'], so a client-influenced
    query name containing slashes cannot alias another session's or
    epoch's prefix. *)

val escape : string -> string
(** The component escaping — exposed for tests. *)

val rcdp_key :
  session:string -> fingerprint:string -> epoch:int -> query:string -> string

val audit_key :
  session:string -> fingerprint:string -> epoch:int -> query:string -> string

val rcqp_key : session:string -> fingerprint:string -> query:string -> string

val mine_key :
  session:string -> fingerprint:string -> epoch:int -> config:string -> string
(** Epoch-keyed like RCDP entries — mined constraints depend on the
    session's database, so any insert makes them unreachable (and the
    insert migration drops them: unlike a verdict, a mined set has no
    cheap revalidation).  [config] fingerprints the mining thresholds,
    so requests with different knobs cache separately. *)

val session_prefix : session:string -> string
(** Prefix of every key of the session (for [close]). *)

val epoch_prefix : session:string -> epoch:int -> string
(** Prefix of the session's epoch-keyed (RCDP/audit) entries. *)

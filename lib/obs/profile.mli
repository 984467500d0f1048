(** Request-scoped explain profiles.

    A {!t} accumulates, for one decide request, where the budgeted
    search steps went: per search level (one level per tableau atom
    instantiated, keyed by level index, atom relation and candidate
    source), which containment constraint pruned each cut branch, and
    a set of named auxiliary counters for tick sites outside the
    valuation search (candidate pools, witness growth, e2 nodes).

    A profile has one owner, the domain running its request: each
    valuation search records into its own {!search} handle (plain
    mutable arrays) and merges it into the aggregate when it finishes.

    Everything here is optional plumbing: deciders take a
    [?profile:t] and the per-candidate cost when no profile is
    attached is a single [match] on the option — no allocation. *)

type t

val create : unit -> t

(** {2 Per-search recording (valuation search)} *)

type search
(** One search invocation's private recorder: cheap int-array bumps,
    single-owner, merged on {!finish_search}. *)

val start_search : t -> names:string array -> sources:string array -> search
(** [names.(i)] labels level [i] — the relation of the atom
    instantiated at that depth of the search plan — and [sources.(i)]
    says where its candidates come from: the generator CCs that supply
    them (comma-separated), or ["adom"] for the active-domain
    product. *)

val step : search -> int -> unit
(** One candidate instantiation at level [i] (mirror every
    [Budget.tick] of the search with one [step]). *)

val prune : search -> int -> string option -> unit
(** A branch cut at level [i]; the constraint name when the checker
    identified which containment constraint rejected the extension. *)

val finish_search : t -> search -> unit
(** Fold the search's counters into the aggregate. *)

(** {2 Named counters and notes} *)

val bump : t -> string -> int -> unit
(** Add to a named counter.  By convention counters whose name ends in
    ["_steps"] are tick sites outside the valuation search and count
    toward {!attributed_steps}. *)

val note : t -> string -> string -> unit
(** Attach a key/value annotation (checker kind, search mode, ...);
    last write wins. *)

val find_note : t -> string -> string option
(** The annotation under a key, if any. *)

(** {2 Reading} *)

type level_row = {
  lv_index : int;
  lv_name : string;  (** atom relation at this depth *)
  lv_source : string;  (** its candidates' source: generator CCs, or ["adom"] *)
  lv_steps : int;  (** candidate fan-out: instantiations tried *)
  lv_prunes : int;  (** branches the constraint check cut here *)
}

type snapshot = {
  levels : level_row list;  (** by level index, then name, then source *)
  constraints : (string * int) list;  (** cc name -> prunes, by name *)
  counters : (string * int) list;  (** by name *)
  notes : (string * string) list;  (** by key *)
}

val snapshot : t -> snapshot
(** A deterministic (sorted) copy of the aggregate so far. *)

val attributed_steps : snapshot -> int
(** Steps the profile can attribute: the sum of every level's
    [lv_steps] plus every counter ending in ["_steps"].  Compare
    against [Budget.steps] to bound what the profile missed. *)

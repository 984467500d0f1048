(** Offline reconstruction of [Ric_obs.Trace] JSONL files.

    [ric trace summarize FILE] loads the span events a traced run
    wrote, rebuilds the parent/child tree, and reports the top-N
    slowest spans, per-phase totals and step rates, and the slowest
    root's span tree. *)

type span = {
  id : int;
  parent : int;  (** 0 = root *)
  name : string;
  start_us : int;
  dur_us : int;
  attrs : (string * Json.t) list;
}

type load_result = {
  spans : span list;  (** in file order *)
  malformed : int;  (** lines that failed to parse (e.g. a torn tail) *)
}

val load : string -> load_result
(** @raise Sys_error when the file cannot be read. *)

val filter_req_id : string -> span list -> span list
(** The spans whose ["req_id"] attribute equals the given id, plus all
    their descendants — one request's complete span subtree, suitable
    for feeding back into {!summarize}.  Empty when the id never
    appears (wrong id, or the run was not traced). *)

type phase_row = {
  ph_name : string;
  ph_count : int;
  ph_total_us : int;
  ph_max_us : int;
  ph_steps : int;  (** summed ["steps"] attributes *)
}

type summary = {
  total_spans : int;
  roots : int;
  wall_us : int;  (** latest end minus earliest start *)
  slowest : span list;  (** top N by duration, longest first *)
  phases : phase_row list;  (** per span name, by total time desc *)
}

val summarize : ?top:int -> span list -> summary
(** [top] bounds [slowest]; default 10. *)

val children : span list -> span -> span list
(** Direct children of a span, by start time. *)

val pp : Format.formatter -> malformed:int -> span list -> summary -> unit
(** The human-readable report, including the slowest root's tree. *)

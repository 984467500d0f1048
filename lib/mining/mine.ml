open Ric_relational
open Ric_query
open Ric_constraints
module Budget = Ric_complete.Budget

type config = {
  enum : Enumerate.config;
  min_support : int;
  min_confidence : float;
  minimal_cover : bool;
}

let default =
  {
    enum = Enumerate.default;
    min_support = 1;
    min_confidence = 0.8;
    minimal_cover = true;
  }

type stats = {
  enumerated : int;
  duplicates : int;
  pruned : int;
  evaluated : int;
  accepted : int;
}

type result = {
  accepted : (string * Containment.t) list;
  accepted_scored : Score.scored list;
  near : Score.scored list;
  stats : stats;
  timed_out : Budget.reason option;
}

(* ------------------------------------------------------------------ *)
(* Metrics *)

let m_stage stage =
  Ric_obs.Metrics.counter ~help:"mining candidates by pipeline stage"
    ~labels:[ ("stage", stage) ]
    "ric_mine_candidates_total"

let m_enumerated = m_stage "enumerated"
let m_pruned = m_stage "pruned"
let m_evaluated = m_stage "evaluated"
let m_accepted = m_stage "accepted"

let m_eval_hist =
  Ric_obs.Metrics.histogram ~help:"per-candidate kernel evaluation latency"
    "ric_mine_eval_seconds"

let m_runs = Ric_obs.Metrics.counter ~help:"mining passes" "ric_mine_runs_total"

let m_timeouts =
  Ric_obs.Metrics.counter ~help:"mining passes that exhausted their budget"
    "ric_mine_timeouts_total"

(* ------------------------------------------------------------------ *)

(* Candidates that cannot reach acceptance, skipped without paying for
   a kernel evaluation: a body atom over an empty db relation (support
   is necessarily 0), or a projection into an empty / unknown master
   relation (confidence is necessarily 0 at any support). *)
let prunable ~db ~master (c : Enumerate.candidate) =
  let empty_in d name =
    match Database.relation d name with
    | r -> Relation.is_empty r
    | exception Not_found -> true
  in
  List.exists (fun (a : Atom.t) -> empty_in db a.Atom.rel) c.atoms
  ||
  match c.rhs with
  | Projection.Empty -> false
  | Projection.Proj { mrel; _ } -> empty_in master mrel

let eval_seq budget ~db ~master cands timed_out =
  let ctx = Score.ctx ~master () in
  let out = ref [] in
  (try
     List.iter
       (fun c ->
         Budget.check_now budget;
         let s =
           Ric_obs.Metrics.time m_eval_hist (fun () ->
               Score.score ~budget ctx ~db c)
         in
         Ric_obs.Metrics.incr m_evaluated;
         out := s :: !out)
       cands
   with Budget.Exhausted r ->
     if !timed_out = None then timed_out := Some r);
  !out

(* ------------------------------------------------------------------ *)
(* Acceptance *)

let order =
  let cmp (a : Score.scored) (b : Score.scored) =
    match compare b.Score.support a.Score.support with
    | 0 ->
      String.compare a.Score.candidate.Enumerate.key
        b.Score.candidate.Enumerate.key
    | c -> c
  in
  List.sort cmp

let mined_name i = "mined-" ^ string_of_int (i + 1)

(* ------------------------------------------------------------------ *)

let run ?(config = default) ?(budget = Budget.unlimited) ~db_schema
    ~master_schema ~db ~master () =
  Ric_obs.Metrics.incr m_runs;
  let er = Enumerate.generate ~config:config.enum ~budget ~db_schema
      ~master_schema ~db ()
  in
  Ric_obs.Metrics.add m_enumerated er.Enumerate.enumerated;
  let timed_out = ref er.Enumerate.exhausted in
  let pruned, to_eval = List.partition (prunable ~db ~master) er.Enumerate.cands in
  Ric_obs.Metrics.add m_pruned (List.length pruned);
  let scored =
    if !timed_out <> None then [] else eval_seq budget ~db ~master to_eval timed_out
  in
  let accepted_all =
    order
      (List.filter
         (fun (s : Score.scored) ->
           s.Score.support >= config.min_support && s.Score.confidence >= 1.0)
         scored)
  in
  (* The minimal cover drops an accepted constraint that another
     accepted one implies.  Equivalent candidates have equal support,
     so [normalize]'s "keep the earlier of an equivalent pair" keeps
     the key-least one of the sorted list. *)
  let accepted_scored =
    if not config.minimal_cover then accepted_all
    else
      let ccs =
        List.map
          (fun (s : Score.scored) ->
            let c = s.Score.candidate in
            (Score.cc_of ~name:c.Enumerate.key c, s))
          accepted_all
      in
      let kept = Optimize.normalize db_schema (List.map fst ccs) in
      List.filter_map (fun (cc, s) -> if List.memq cc kept then Some s else None) ccs
  in
  let near =
    order
      (List.filter
         (fun (s : Score.scored) ->
           s.Score.support >= config.min_support
           && s.Score.confidence < 1.0
           && s.Score.confidence >= config.min_confidence)
         scored)
  in
  let accepted =
    List.mapi
      (fun i (s : Score.scored) ->
        let n = mined_name i in
        (n, Score.cc_of ~name:n s.Score.candidate))
      accepted_scored
  in
  Ric_obs.Metrics.add m_accepted (List.length accepted);
  if !timed_out <> None then Ric_obs.Metrics.incr m_timeouts;
  {
    accepted;
    accepted_scored;
    near;
    stats =
      {
        enumerated = er.Enumerate.enumerated;
        duplicates = er.Enumerate.duplicates;
        pruned = List.length pruned;
        evaluated = List.length scored;
        accepted = List.length accepted;
      };
    timed_out = !timed_out;
  }

(* ------------------------------------------------------------------ *)
(* Cross-check: does the mined knowledge promote queries to Complete? *)

type check_row = {
  cq_name : string;
  before : string;
  after : string;
  flipped : bool;
}

let cross_check ?clock ~db_schema ~db ~master ~queries ~mined () =
  let module Rcdp = Ric_complete.Rcdp in
  let decide ccs q =
    match
      Rcdp.decide ?clock ~check_partially_closed:false ~schema:db_schema
        ~master ~ccs ~db q
    with
    | Rcdp.Complete -> "Complete"
    | Rcdp.Incomplete _ -> "Incomplete"
    | exception Rcdp.Unsupported _ -> "unsupported"
    | exception Budget.Exhausted r -> "timeout:" ^ Budget.reason_name r
  in
  let ccs = List.map snd mined in
  List.map
    (fun (cq_name, q) ->
      let before = decide [] q in
      let after = decide ccs q in
      { cq_name; before; after; flipped = before <> "Complete" && after = "Complete" })
    queries

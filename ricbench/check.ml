(* Reply decoding and reference verdicts.

   A reference verdict is computed in this process, with the deciders
   called directly on the scenario the daemon loaded, and compared with
   the verdict label of every reply to the same decide. *)

open Ric_relational
open Ric_service
module Json = Ric_text.Json
module Scenario = Ric_text.Scenario
module Rcdp = Ric_complete.Rcdp
module Rcqp = Ric_complete.Rcqp
module Mine = Ric_mining.Mine

let field k = function Json.Obj fs -> List.assoc_opt k fs | _ -> None
let int_field k j = match field k j with Some (Json.Int n) -> n | _ -> 0
let bool_field k j = match field k j with Some (Json.Bool b) -> b | _ -> false
let str_field k j = match field k j with Some (Json.Str s) -> Some s | _ -> None

let mine_label ~accepted ~enumerated = Printf.sprintf "accepted=%d,enumerated=%d" accepted enumerated

(* The verdict of a decide or mine reply: "complete", "nonempty",
   "timeout", ... or the mined-set summary. *)
let label reply =
  match field "result" reply with
  | None -> "missing"
  | Some r -> (
    match (str_field "verdict" r, field "stats" r) with
    | Some v, _ -> v
    | None, _ when field "timeout" r <> None -> "timeout"
    | None, Some st ->
      mine_label ~accepted:(int_field "accepted" st) ~enumerated:(int_field "enumerated" st)
    | None, None -> "missing")

let is_decide = function
  | Protocol.Rcdp _ | Protocol.Rcqp _ | Protocol.Mine _ -> true
  | _ -> false

let is_write = function
  | Protocol.Insert _ | Protocol.Insert_bulk _ -> true
  | _ -> false

let session_of = function
  | Protocol.Rcdp { session; _ } | Protocol.Rcqp { session; _ } | Protocol.Mine { session; _ }
  | Protocol.Insert { session; _ } | Protocol.Insert_bulk { session; _ } ->
    Some session
  | _ -> None

(* One key per distinct decide: RCQP verdicts do not depend on the
   database, so like the daemon's cache they carry no epoch. *)
let key ~epoch = function
  | Protocol.Rcdp { session; query; _ } -> Printf.sprintf "%s@%d rcdp %s" session epoch query
  | Protocol.Rcqp { session; query; _ } -> Printf.sprintf "%s rcqp %s" session query
  | Protocol.Mine { session; _ } -> Printf.sprintf "%s@%d mine" session epoch
  | r -> invalid_arg ("Check.key: " ^ Protocol.op_name r)

(* What the daemon's session holds at one epoch. *)
type state = { scenario : Scenario.t; db : Database.t; closed : bool }

let state_of (s : Session.t) =
  { scenario = s.Session.scenario; db = s.Session.db; closed = Session.partially_closed s }

let query st name =
  match Scenario.find_query st.scenario name with
  | Some q -> q
  | None -> failwith ("no query " ^ name)

(* a counting clock with the requests' own deadline, as the daemon
   builds for a request carrying timeout_ms *)
let clock () =
  Ric_complete.Budget.create
    ~deadline_after:(float_of_int Inputs.decide_timeout_ms /. 1000.)
    ()

let rcdp st name =
  let sc = st.scenario in
  Rcdp.decide ~clock:(clock ()) ~check_partially_closed:false ~schema:sc.Scenario.db_schema
    ~master:sc.Scenario.master ~ccs:(Scenario.all_ccs sc) ~db:st.db (query st name)

let rcqp st name =
  let sc = st.scenario in
  Rcqp.decide ~clock:(clock ()) ~schema:sc.Scenario.db_schema ~master:sc.Scenario.master
    ~ccs:(Scenario.all_ccs sc) (query st name)

let mine st =
  let sc = st.scenario in
  Mine.run ~budget:(clock ()) ~db_schema:sc.Scenario.db_schema ~master_schema:sc.Scenario.master_schema ~db:st.db
    ~master:sc.Scenario.master ()

(* The reference label of one decide, and the RCDP verdict behind it
   (its counterexample feeds the write-path probes of the traced run). *)
let reference_exn st = function
  | Protocol.Rcdp { query = q; _ } ->
    if not st.closed then ("not_partially_closed", None)
    else (
      match rcdp st q with
      | Rcdp.Complete as v -> ("complete", Some v)
      | Rcdp.Incomplete _ as v -> ("incomplete", Some v)
      | exception Rcdp.Unsupported _ -> ("unsupported", None))
  | Protocol.Rcqp { query = q; _ } -> (
    match rcqp st q with
    | v -> (Rcqp.verdict_name v, None)
    | exception Rcqp.Unsupported _ -> ("unsupported", None))
  | Protocol.Mine _ ->
    let r = mine st in
    ( mine_label ~accepted:r.Mine.stats.Mine.accepted ~enumerated:r.Mine.stats.Mine.enumerated,
      None )
  | r -> invalid_arg ("Check.reference: " ^ Protocol.op_name r)

let reference st req =
  try reference_exn st req with Ric_complete.Budget.Exhausted _ -> ("timeout", None)

(* [f] over [xs] on two domains (the host has two cores); the deciders
   run on immutable snapshots, as in the daemon's worker pool. *)
let par_map f xs =
  let input = Array.of_list xs in
  let out = Array.make (Array.length input) None in
  let next = Atomic.make 0 in
  let rec work () =
    let i = Atomic.fetch_and_add next 1 in
    if i < Array.length input then begin
      out.(i) <- Some (f input.(i));
      work ()
    end
  in
  let other = Stdlib.Domain.spawn work in
  work ();
  Stdlib.Domain.join other;
  Array.to_list (Array.map Option.get out)

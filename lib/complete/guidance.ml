open Ric_relational
module Metrics = Ric_obs.Metrics
module Trace = Ric_obs.Trace

let m_audits =
  Metrics.counter ~help:"guidance audits run, by outcome"
    "ric_guidance_audits_total"

type audit_result =
  | Already_complete
  | Completable of {
      additions : Database.t;
      completed : Database.t;
      rounds : int;
    }
  | Not_completable of { reason : string }
  | Inconclusive of { reason : string }

let audit ?clock ?profile ?(max_rounds = 64) ~schema ~master ~ccs ~db q =
  Trace.with_span "guidance.audit" @@ fun sp ->
  Metrics.incr m_audits;
  let outcome result =
    Trace.set_str sp "outcome"
      (match result with
       | Already_complete -> "already_complete"
       | Completable { rounds; _ } ->
         Trace.set_int sp "rounds" rounds;
         "completable"
       | Not_completable _ -> "not_completable"
       | Inconclusive _ -> "inconclusive");
    result
  in
  outcome
  @@
  match Rcdp.decide ?clock ?profile ~schema ~master ~ccs ~db q with
  | Rcdp.Complete -> Already_complete
  | Rcdp.Incomplete first ->
    (* Is completion possible at all? *)
    (match Rcqp.decide ?clock ?profile ~schema ~master ~ccs q with
     | Rcqp.Empty { reason } ->
       Not_completable
         { reason = Printf.sprintf "no complete database exists: %s" reason }
     | Rcqp.Nonempty _ | Rcqp.Unknown _ ->
       (* Replay counterexamples until the decider is satisfied. *)
       let rec loop current cex rounds =
         if rounds > max_rounds then
           Inconclusive
             {
               reason =
                 Printf.sprintf
                   "still incomplete after %d extension rounds; the missing data may be \
                    unbounded"
                   max_rounds;
             }
         else begin
           let current = Database.union current cex.Rcdp.cex_extension in
           match
             Rcdp.decide ?clock ?profile ~schema ~master ~ccs ~db:current q
           with
           | Rcdp.Complete ->
             let additions =
               Database.fold
                 (fun name rel acc ->
                   let original =
                     try Database.relation db name with Not_found -> Relation.empty
                   in
                   Database.set_relation acc name (Relation.diff rel original))
                 current (Database.empty schema)
             in
             Completable { additions; completed = current; rounds }
           | Rcdp.Incomplete cex' -> loop current cex' (rounds + 1)
         end
       in
       loop db first 1)

let pp_audit ppf = function
  | Already_complete -> Format.fprintf ppf "complete: the database can answer the query"
  | Completable { additions; rounds; _ } ->
    Format.fprintf ppf
      "incomplete, but completable in %d round(s); collect these tuples:@.%a" rounds
      Database.pp additions
  | Not_completable { reason } ->
    Format.fprintf ppf "not completable by adding data — expand the master data.@.%s" reason
  | Inconclusive { reason } -> Format.fprintf ppf "inconclusive: %s" reason

(* ric — relative information completeness workbench.

   A small CLI over the library: audit the built-in CRM scenario,
   decide RCDP/RCQP for its queries, and run the hardness reductions
   on random instances.  Meant as a demonstrator; programmatic use
   goes through the libraries. *)

open Ric_relational
open Ric_query
open Ric_complete
open Ric_workloads
open Cmdliner

let queries =
  [
    ("q0", `Cq Crm.q0, "domestic area-908 customers");
    ("q0-all", `Cq Crm.q0_all_customers, "every customer incl. international");
    ("q1", `Cq Crm.q1, "area-908 customers supported by e0");
    ("q2", `Cq Crm.q2, "customers supported by e0");
    ("q2-tuples", `Cq Crm.q2_tuples, "full support rows of e0");
    ("q4", `Cq Crm.q4, "support rows of e0 in d0");
    ("q3", `Fp Crm.q3_fp, "everyone above e0 (datalog)");
  ]

let constraint_sets =
  [
    ("domestic", [ Crm.cc_domestic_customers ], "domestic Cust rows bounded by DCust");
    ("supported", [ Crm.cc_supported_domestic ], "supported domestic customers bounded");
    ("fd-dept", Crm.ccs_fd_dept, "FD eid → dept on Supt");
    ("fd-full", Crm.ccs_fd_supt, "FD eid → dept, cid on Supt");
    ("cap3", [ Crm.cc_support_load 3 ], "an employee supports at most 3 customers");
  ]

(* A converter over a keyed catalogue: parses the key straight to its
   value and turns an unknown key into a cmdliner error that lists
   every valid one (instead of the old [invalid_arg] crash). *)
let keyed what assoc =
  let valid () = String.concat ", " (List.map (fun (k, _, _) -> k) assoc) in
  let parse s =
    match List.find_opt (fun (k, _, _) -> String.equal k s) assoc with
    | Some (_, v, _) -> Ok v
    | None ->
      Error (`Msg (Printf.sprintf "unknown %s %s (valid: %s)" what s (valid ())))
  in
  let print ppf _ = Format.fprintf ppf "<%s>" what in
  Arg.conv ~docv:(String.uppercase_ascii what) (parse, print)

let lookup3 assoc k =
  match List.find_opt (fun (k', _, _) -> String.equal k k') assoc with
  | Some (_, v, _) -> v
  | None -> assert false (* keys come from [keyed], already validated *)

let query_arg =
  let doc =
    "Query to analyse: " ^ String.concat ", " (List.map (fun (k, _, d) -> k ^ " (" ^ d ^ ")") queries)
  in
  Arg.(
    value
    & opt (keyed "query" queries) (lookup3 queries "q0")
    & info [ "q"; "query" ] ~doc)

let ccs_arg =
  let doc =
    "Constraint set: "
    ^ String.concat ", " (List.map (fun (k, _, d) -> k ^ " (" ^ d ^ ")") constraint_sets)
  in
  Arg.(
    value
    & opt (keyed "constraint-set" constraint_sets) (lookup3 constraint_sets "domestic")
    & info [ "c"; "constraints" ] ~doc)

let customers_arg =
  Arg.(value & opt int 6 & info [ "n"; "customers" ] ~doc:"Number of master customers")

let keep_arg =
  Arg.(value & opt float 0.7 & info [ "k"; "keep" ] ~doc:"Fraction of master rows present in the database")

let seed_arg = Arg.(value & opt int 0 & info [ "s"; "seed" ] ~doc:"Generator seed")

let scenario ~customers ~keep ~seed =
  let master = Crm.master ~customers ~managers:[ ("e1", "e0"); ("e2", "e1") ] () in
  let db = Crm.db ~seed ~master ~keep ~supported_by:[ ("e0", [ "d0" ]) ] () in
  (master, db)

let as_lang = function
  | `Cq q -> Lang.Q_cq q
  | `Fp p -> Lang.Q_fp p

let audit_cmd =
  let run query ccs customers keep seed =
    let master, db = scenario ~customers ~keep ~seed in
    let q = as_lang query in
    Format.printf "database:@.%a@.@." Database.pp db;
    (try
       let result = Guidance.audit ~schema:Crm.db_schema ~master ~ccs ~db q in
       Format.printf "%a@." Guidance.pp_audit result
     with Rcdp.Unsupported msg -> Format.printf "undecidable combination: %s@." msg);
    0
  in
  Cmd.v (Cmd.info "audit" ~doc:"Audit a CRM query: complete / completable / master data must grow")
    Term.(const run $ query_arg $ ccs_arg $ customers_arg $ keep_arg $ seed_arg)

let rcdp_cmd =
  let run query ccs customers keep seed =
    let master, db = scenario ~customers ~keep ~seed in
    let q = as_lang query in
    (try
       match Rcdp.decide ~schema:Crm.db_schema ~master ~ccs ~db q with
       | Rcdp.Complete -> Format.printf "complete@."
       | Rcdp.Incomplete cex ->
         Format.printf "incomplete — extension:@.%a@.new answer: %a@." Database.pp
           cex.Rcdp.cex_extension Tuple.pp cex.Rcdp.cex_answer
     with
     | Rcdp.Unsupported msg -> Format.printf "undecidable (Theorem 3.1): %s@." msg
     | Rcdp.Not_partially_closed msg -> Format.printf "input rejected: %s@." msg);
    0
  in
  Cmd.v (Cmd.info "rcdp" ~doc:"Is the generated database complete for the query?")
    Term.(const run $ query_arg $ ccs_arg $ customers_arg $ keep_arg $ seed_arg)

let rcqp_cmd =
  let run query ccs customers =
    let master, _ = scenario ~customers ~keep:1.0 ~seed:0 in
    let q = as_lang query in
    (try
       match Rcqp.decide ~schema:Crm.db_schema ~master ~ccs q with
       | Rcqp.Nonempty { witness; reason } ->
         Format.printf "nonempty — %s@." reason;
         (match witness with
          | Some w -> Format.printf "witness:@.%a@." Database.pp w
          | None -> ())
       | Rcqp.Empty { reason } -> Format.printf "empty — %s@." reason
       | Rcqp.Unknown { reason } -> Format.printf "unknown — %s@." reason
     with Rcqp.Unsupported msg -> Format.printf "undecidable (Theorem 4.1): %s@." msg);
    0
  in
  Cmd.v (Cmd.info "rcqp" ~doc:"Does any complete database exist for the query?")
    Term.(const run $ query_arg $ ccs_arg $ customers_arg)

let reduction_cmd =
  let run seed n_forall n_exists n_clauses =
    let fe = Ric_reductions.Sat.random_fe ~seed ~n_forall ~n_exists ~n_clauses in
    Format.printf "φ = ∀x0..x%d ∃.. %a@." (n_forall - 1) Ric_reductions.Sat.pp_cnf
      fe.Ric_reductions.Sat.fe_cnf;
    let inst = Ric_reductions.Rcdp_hardness.of_fe fe in
    let expected = Ric_reductions.Rcdp_hardness.expected fe in
    let got = Ric_reductions.Rcdp_hardness.decide inst in
    Format.printf "QBF evaluates to %b; RCDP decider says complete=%b — %s@." expected got
      (if expected = got then "agreement" else "MISMATCH");
    0
  in
  let nf = Arg.(value & opt int 2 & info [ "forall" ] ~doc:"universal variables") in
  let ne = Arg.(value & opt int 2 & info [ "exists" ] ~doc:"existential variables") in
  let nc = Arg.(value & opt int 3 & info [ "clauses" ] ~doc:"3SAT clauses") in
  Cmd.v
    (Cmd.info "reduction"
       ~doc:"Run the Theorem 3.6 hardness reduction on a random ∀∃3SAT instance")
    Term.(const run $ seed_arg $ nf $ ne $ nc)

(* ------------------------------------------------------------------ *)
(* Scenario files (.ric). *)

let file_arg =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"A .ric scenario file")

let file_query_arg =
  Arg.(value & opt (some string) None & info [ "q"; "query" ] ~doc:"Query name (defaults to the first one)")

let json_arg = Arg.(value & flag & info [ "json" ] ~doc:"Emit machine-readable JSON")

let search_conv =
  let parse s =
    Result.map_error (fun m -> `Msg m) (Ric_service.Protocol.check_search s)
  in
  Arg.conv ~docv:"MODE" (parse, Format.pp_print_string)

let search_doc =
  "Accepted for compatibility, always sequential: $(b,seq), $(b,inc), $(b,par) \
   and $(b,par:N) (N >= 1) all run the one sequential valuation search"

let search_arg =
  Arg.(value & opt search_conv "seq" & info [ "search" ] ~doc:search_doc)

let file_trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"TRACE"
        ~doc:
          "Write span events for this run to $(docv) as JSON lines; inspect with \
           $(b,ric trace summarize) $(docv)")

(* Tracing a one-shot decide: open the sink for the duration of [f]
   and hand it a step-counting clock (an [unlimited] clock skips the
   counter, which would leave every span's [steps] attribute at 0). *)
let with_trace trace f =
  match trace with
  | None -> f Budget.unlimited
  | Some path ->
    Ric_obs.Trace.open_file path;
    Fun.protect ~finally:Ric_obs.Trace.close (fun () -> f (Budget.create ()))

let with_scenario path f =
  match Ric_text.Scenario.load path with
  | s -> f s
  | exception Ric_text.Scenario.Parse_error (msg, line, col) ->
    Format.eprintf "%s:%d:%d: %s@." path line col msg;
    1

let pick_query (s : Ric_text.Scenario.t) = function
  | Some name ->
    (match Ric_text.Scenario.find_query s name with
     | Some q -> Ok (name, q)
     | None ->
       Error
         (Format.asprintf "no query %S; available: %s" name
            (String.concat ", " (List.map fst s.Ric_text.Scenario.queries))))
  | None ->
    (match s.Ric_text.Scenario.queries with
     | (name, q) :: _ -> Ok (name, q)
     | [] -> Error "the scenario declares no queries")

(* A decide that rejects its input ((D, Dm) breaks V) or meets an
   undecidable combination: under --json, the result object the daemon
   answers, wrapped by [envelope]; otherwise one line of text. *)
let print_rejection ~json (s : Ric_text.Scenario.t) envelope e =
  let text, result =
    match e with
    | Rcdp.Not_partially_closed msg ->
      ( "input rejected: " ^ msg,
        Option.map
          (fun (cc, witness) ->
            Ric_text.Report.not_closed_result (cc.Ric_constraints.Containment.cc_name, witness))
          (Ric_constraints.Containment.first_violation ~db:s.Ric_text.Scenario.db
             ~master:s.Ric_text.Scenario.master (Ric_text.Scenario.all_ccs s)) )
    | Rcdp.Unsupported msg | Rcqp.Unsupported msg ->
      ("undecidable: " ^ msg, Some (Ric_text.Report.unsupported_result msg))
    | e -> raise e
  in
  match result with
  | Some r when json -> Format.printf "%a@." Ric_text.Json.pp (envelope r)
  | _ -> Format.printf "%s@." text

(* the [ric file] envelope: {"query": name, "result": ...} *)
let file_result name r =
  Ric_text.Json.Obj [ ("query", Ric_text.Json.Str name); ("result", r) ]

let file_show_cmd =
  let run path =
    with_scenario path (fun s ->
        Format.printf "%a@." Ric_text.Scenario.pp s;
        Format.printf "# partially closed: %b@."
          (Ric_constraints.Containment.holds_all ~db:s.Ric_text.Scenario.db
             ~master:s.Ric_text.Scenario.master
             (Ric_text.Scenario.all_ccs s));
        0)
  in
  Cmd.v (Cmd.info "show" ~doc:"Parse a scenario and print it back (with a closure check)")
    Term.(const run $ file_arg)

let file_audit_cmd =
  let run path qname json (_search : string) trace =
    with_scenario path (fun s ->
        match pick_query s qname with
        | Error m ->
          Format.eprintf "%s@." m;
          1
        | Ok (name, q) ->
          (try
             let result =
               with_trace trace (fun clock ->
                   Guidance.audit ~clock ~schema:s.Ric_text.Scenario.db_schema
                     ~master:s.Ric_text.Scenario.master
                     ~ccs:(Ric_text.Scenario.all_ccs s)
                     ~db:s.Ric_text.Scenario.db q)
             in
             if json then
               Format.printf "%a@." Ric_text.Json.pp
                 (file_result name (Ric_text.Report.audit_result result))
             else begin
               Format.printf "auditing %s...@." name;
               Format.printf "%a@." Guidance.pp_audit result
             end
           with Rcdp.Unsupported msg -> Format.printf "undecidable: %s@." msg);
          0)
  in
  Cmd.v (Cmd.info "audit" ~doc:"Audit a query of a scenario file")
    Term.(const run $ file_arg $ file_query_arg $ json_arg $ search_arg $ file_trace_arg)

let file_rcqp_cmd =
  let run path qname json (_search : string) trace =
    with_scenario path (fun s ->
        match pick_query s qname with
        | Error m ->
          Format.eprintf "%s@." m;
          1
        | Ok (name, q) ->
          (try
             let verdict =
               with_trace trace (fun clock ->
                   Rcqp.decide ~clock ~schema:s.Ric_text.Scenario.db_schema
                     ~master:s.Ric_text.Scenario.master
                     ~ccs:(Ric_text.Scenario.all_ccs s) q)
             in
             if json then
               Format.printf "%a@." Ric_text.Json.pp
                 (file_result name (Ric_text.Report.rcqp_verdict verdict))
             else
               match verdict with
               | Rcqp.Nonempty { reason; _ } -> Format.printf "%s: nonempty — %s@." name reason
               | Rcqp.Empty { reason } -> Format.printf "%s: empty — %s@." name reason
               | Rcqp.Unknown { reason } -> Format.printf "%s: unknown — %s@." name reason
           with Rcqp.Unsupported _ as e -> print_rejection ~json s (file_result name) e);
          0)
  in
  Cmd.v (Cmd.info "rcqp" ~doc:"Can any database be complete for a scenario query?")
    Term.(const run $ file_arg $ file_query_arg $ json_arg $ search_arg $ file_trace_arg)

let file_rcdp_cmd =
  let run path qname json (_search : string) trace =
    with_scenario path (fun s ->
        match pick_query s qname with
        | Error m ->
          Format.eprintf "%s@." m;
          1
        | Ok (name, q) ->
          (try
             let verdict =
               with_trace trace (fun clock ->
                   Rcdp.decide ~clock ~schema:s.Ric_text.Scenario.db_schema
                     ~master:s.Ric_text.Scenario.master
                     ~ccs:(Ric_text.Scenario.all_ccs s) ~db:s.Ric_text.Scenario.db q)
             in
             if json then
               Format.printf "%a@." Ric_text.Json.pp
                 (file_result name (Ric_text.Report.rcdp_verdict verdict))
             else
               match verdict with
               | Rcdp.Complete -> Format.printf "%s: complete@." name
               | Rcdp.Incomplete cex ->
                 Format.printf
                   "%s: incomplete — admissible extension:@.%a@.new answer: %a@." name
                   Database.pp cex.Rcdp.cex_extension Tuple.pp cex.Rcdp.cex_answer
           with (Rcdp.Unsupported _ | Rcdp.Not_partially_closed _) as e ->
             print_rejection ~json s (file_result name) e);
          0)
  in
  Cmd.v (Cmd.info "rcdp" ~doc:"Is the scenario's database complete for a query?")
    Term.(const run $ file_arg $ file_query_arg $ json_arg $ search_arg $ file_trace_arg)

let file_worlds_cmd =
  (* the Section 5 analysis: enumerate the possible worlds of the
     scenario's c-tables and audit each *)
  let run path qname json =
    with_scenario path (fun s ->
        match pick_query s qname with
        | Error m ->
          Format.eprintf "%s@." m;
          1
        | Ok (name, q) ->
          let cdb = Ric_text.Scenario.as_cdatabase s in
          let values =
            List.sort_uniq Ric_relational.Value.compare
              (Database.adom s.Ric_text.Scenario.db
              @ Database.adom s.Ric_text.Scenario.master)
          in
          (try
             let report =
               Ric_incomplete.Rc_missing.analyze ~values
                 ~schema:s.Ric_text.Scenario.db_schema
                 ~master:s.Ric_text.Scenario.master
                 ~ccs:(Ric_text.Scenario.all_ccs s) cdb q
             in
             if json then
               Format.printf "%a@." Ric_text.Json.pp
                 (Ric_text.Json.Obj
                    [
                      ("query", Ric_text.Json.Str name);
                      ("worlds", Ric_text.Json.Int report.Ric_incomplete.Rc_missing.n_worlds);
                      ("closed", Ric_text.Json.Int report.Ric_incomplete.Rc_missing.n_closed);
                      ("complete", Ric_text.Json.Int report.Ric_incomplete.Rc_missing.n_complete);
                      ( "strongly_complete",
                        Ric_text.Json.Bool report.Ric_incomplete.Rc_missing.strongly_complete );
                      ( "weakly_complete",
                        Ric_text.Json.Bool report.Ric_incomplete.Rc_missing.weakly_complete );
                    ])
             else
               Format.printf "%s: %a@." name Ric_incomplete.Rc_missing.pp_report report
           with
           | Rcdp.Unsupported msg -> Format.printf "undecidable: %s@." msg
           | Invalid_argument msg -> Format.printf "cannot analyse: %s@." msg);
          0)
  in
  Cmd.v
    (Cmd.info "worlds"
       ~doc:"Analyse a query across the possible worlds of the scenario's missing values")
    Term.(const run $ file_arg $ file_query_arg $ json_arg)

let file_group =
  Cmd.group (Cmd.info "file" ~doc:"Work on .ric scenario files")
    [ file_show_cmd; file_audit_cmd; file_rcdp_cmd; file_rcqp_cmd; file_worlds_cmd ]

(* ------------------------------------------------------------------ *)
(* Explain: one decide with a profile attached, rendered as tables —
   where the steps went (per search level), what cut branches (per
   constraint), and how much of the budget the profile can account
   for. *)

let explain_modes =
  [
    ("rcdp", `Rcdp, "is the database complete? (default)");
    ("rcqp", `Rcqp, "does any complete database exist?");
    ("audit", `Audit, "the full completeness audit");
  ]

let explain_cmd =
  let module Profile = Ric_obs.Profile in
  let run path qname mode (_search : string) timeout_ms json =
    with_scenario path (fun s ->
        match pick_query s qname with
        | Error m ->
          Format.eprintf "%s@." m;
          1
        | Ok (name, q) ->
          let schema = s.Ric_text.Scenario.db_schema in
          let master = s.Ric_text.Scenario.master in
          let ccs = Ric_text.Scenario.all_ccs s in
          let db = s.Ric_text.Scenario.db in
          let profile = Profile.create () in
          let clock =
            let deadline_after =
              Option.map (fun ms -> float_of_int ms /. 1000.) timeout_ms
            in
            Budget.create ?deadline_after ()
          in
          (try
             let verdict =
               try
                 match mode with
                 | `Rcdp -> (
                   match
                     Rcdp.decide ~clock ~profile ~schema ~master ~ccs ~db q
                   with
                   | Rcdp.Complete -> "complete"
                   | Rcdp.Incomplete _ -> "incomplete")
                 | `Rcqp -> (
                   match Rcqp.decide ~clock ~profile ~schema ~master ~ccs q with
                   | Rcqp.Nonempty _ -> "nonempty"
                   | Rcqp.Empty _ -> "empty"
                   | Rcqp.Unknown _ -> "unknown")
                 | `Audit -> (
                   match
                     Guidance.audit ~clock ~profile ~schema ~master ~ccs ~db q
                   with
                   | Guidance.Already_complete -> "already_complete"
                   | Guidance.Completable _ -> "completable"
                   | Guidance.Not_completable _ -> "not_completable"
                   | Guidance.Inconclusive _ -> "inconclusive")
               with Budget.Exhausted reason ->
                 (* a timed-out run still has a profile: the steps it
                    did take are attributed like any other run's *)
                 "timeout:" ^ Budget.reason_name reason
             in
             let snap = Profile.snapshot profile in
             let steps = Budget.steps clock in
             let attributed = Profile.attributed_steps snap in
             let pct =
               if steps = 0 then 100.
               else 100. *. float_of_int attributed /. float_of_int steps
             in
             if json then begin
               let open Ric_text.Json in
               Format.printf "%a@." pp
                 (Obj
                    [
                      ("query", Str name);
                      ("verdict", Str verdict);
                      ("steps", Int steps);
                      ("attributed_steps", Int attributed);
                      ( "levels",
                        List
                          (List.map
                             (fun r ->
                               Obj
                                 [
                                   ("level", Int r.Profile.lv_index);
                                   ("atom", Str r.Profile.lv_name);
                                   ("source", Str r.Profile.lv_source);
                                   ("steps", Int r.Profile.lv_steps);
                                   ("prunes", Int r.Profile.lv_prunes);
                                 ])
                             snap.Profile.levels) );
                      ( "constraints",
                        List
                          (List.map
                             (fun (cc, n) -> Obj [ ("name", Str cc); ("prunes", Int n) ])
                             snap.Profile.constraints) );
                      ( "counters",
                        Obj (List.map (fun (k, n) -> (k, Int n)) snap.Profile.counters) );
                      ( "notes",
                        Obj (List.map (fun (k, v) -> (k, Str v)) snap.Profile.notes) );
                    ])
             end
             else begin
               Format.printf "%s: %s@." name verdict;
               List.iter
                 (fun (k, v) -> Format.printf "  %s=%s" k v)
                 snap.Profile.notes;
               if snap.Profile.notes <> [] then Format.printf "@.";
               Format.printf "steps: %d  attributed: %d (%.1f%%)@." steps attributed pct;
               if snap.Profile.levels <> [] then begin
                 Format.printf "@.per-level fan-out@.";
                 Format.printf "  %5s %-14s %12s %12s  %s@." "level" "atom" "steps" "prunes"
                   "source";
                 List.iter
                   (fun r ->
                     Format.printf "  %5d %-14s %12d %12d  %s@." r.Profile.lv_index
                       r.Profile.lv_name r.Profile.lv_steps r.Profile.lv_prunes
                       r.Profile.lv_source)
                   snap.Profile.levels
               end;
               if snap.Profile.constraints <> [] then begin
                 Format.printf "@.prunes by constraint@.";
                 Format.printf "  %-24s %12s@." "constraint" "prunes";
                 List.iter
                   (fun (cc, n) -> Format.printf "  %-24s %12d@." cc n)
                   snap.Profile.constraints
               end;
               if snap.Profile.counters <> [] then begin
                 Format.printf "@.counters@.";
                 List.iter
                   (fun (k, n) -> Format.printf "  %-24s %12d@." k n)
                   snap.Profile.counters
               end
             end;
             0
           with (Rcdp.Unsupported _ | Rcqp.Unsupported _ | Rcdp.Not_partially_closed _) as e ->
             (* the result's "verdict" sits beside "query", where a
                profile's verdict string goes *)
             print_rejection ~json s
               (function
                 | Ric_text.Json.Obj fields ->
                   Ric_text.Json.Obj (("query", Ric_text.Json.Str name) :: fields)
                 | r -> r)
               e;
             0))
  in
  let mode_arg =
    let doc =
      "Decider to profile: "
      ^ String.concat ", "
          (List.map (fun (k, _, d) -> k ^ " (" ^ d ^ ")") explain_modes)
    in
    Arg.(
      value
      & opt (keyed "mode" explain_modes) (lookup3 explain_modes "rcdp")
      & info [ "m"; "mode" ] ~doc)
  in
  let timeout_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "timeout-ms" ] ~docv:"MS"
          ~doc:
            "Wall-clock budget for the decide; an exhausted run reports a \
             timeout verdict with the partial profile.")
  in
  Cmd.v
    (Cmd.info "explain"
       ~doc:
         "Decide a scenario query with an explain profile: per-level step \
          attribution, per-constraint prune counts, budget coverage")
    Term.(
      const run $ file_arg $ file_query_arg $ mode_arg $ search_arg
      $ timeout_arg $ json_arg)

(* ------------------------------------------------------------------ *)
(* Mining: induce containment constraints from a scenario's (Dm, D). *)

let mine_cmd =
  let module Mine = Ric_mining.Mine in
  let module Enumerate = Ric_mining.Enumerate in
  let module Score = Ric_mining.Score in
  let module Scenario = Ric_text.Scenario in
  let run path json check full min_support min_confidence max_atoms max_width
      max_consts no_cover timeout_ms =
    with_scenario path (fun s ->
        let config =
          {
            Mine.enum =
              { Enumerate.default with Enumerate.max_atoms; max_width; max_consts };
            min_support;
            min_confidence;
            minimal_cover = not no_cover;
          }
        in
        let budget ()
            =
          match timeout_ms with
          | None -> Budget.unlimited
          | Some ms -> Budget.create ~deadline_after:(float_of_int ms /. 1000.) ()
        in
        if Database.is_empty s.Scenario.db then begin
          Format.eprintf "%s: nothing to mine — the instance is empty@." path;
          if json then
            Format.printf "%a@." Ric_text.Json.pp
              (Ric_text.Json.Obj
                 [
                   ("file", Ric_text.Json.Str path);
                   ("accepted", Ric_text.Json.List []);
                   ("note", Ric_text.Json.Str "empty instance");
                 ]);
          0
        end
        else begin
          let r =
            Mine.run ~config ~budget:(budget ())
              ~db_schema:s.Scenario.db_schema
              ~master_schema:s.Scenario.master_schema ~db:s.Scenario.db
              ~master:s.Scenario.master ()
          in
          let checks =
            if check && r.Mine.timed_out = None then
              Mine.cross_check ?clock:None ~db_schema:s.Scenario.db_schema
                ~db:s.Scenario.db ~master:s.Scenario.master
                ~queries:s.Scenario.queries ~mined:r.Mine.accepted ()
            else []
          in
          let line named =
            String.trim (Format.asprintf "%a" Scenario.pp_named_constraint named)
          in
          if json then begin
            let open Ric_text.Json in
            let scored_json (sc : Score.scored) named =
              Obj
                [
                  ("name", Str (fst named));
                  ("family", Str sc.Score.candidate.Enumerate.family);
                  ("support", Int sc.Score.support);
                  ("confidence", Str (Printf.sprintf "%.3f" sc.Score.confidence));
                  ("text", Str (line named));
                ]
            in
            Format.printf "%a@." pp
              (Obj
                 ([
                    ("file", Str path);
                    ( "accepted",
                      List (List.map2 (fun n sc -> scored_json sc n) r.Mine.accepted
                              r.Mine.accepted_scored) );
                    ( "near",
                      List
                        (List.map
                           (fun (sc : Score.scored) ->
                             Obj
                               [
                                 ("family", Str sc.Score.candidate.Enumerate.family);
                                 ("support", Int sc.Score.support);
                                 ( "confidence",
                                   Str (Printf.sprintf "%.3f" sc.Score.confidence) );
                               ])
                           r.Mine.near) );
                    ( "stats",
                      Obj
                        [
                          ("enumerated", Int r.Mine.stats.Mine.enumerated);
                          ("duplicates", Int r.Mine.stats.Mine.duplicates);
                          ("pruned", Int r.Mine.stats.Mine.pruned);
                          ("evaluated", Int r.Mine.stats.Mine.evaluated);
                          ("accepted", Int r.Mine.stats.Mine.accepted);
                        ] );
                  ]
                 @ (match r.Mine.timed_out with
                    | Some reason -> [ ("timeout", Str (Budget.reason_name reason)) ]
                    | None -> [])
                 @
                 if check then
                   [
                     ( "cross_check",
                       List
                         (List.map
                            (fun (c : Mine.check_row) ->
                              Obj
                                [
                                  ("query", Str c.Mine.cq_name);
                                  ("before", Str c.Mine.before);
                                  ("after", Str c.Mine.after);
                                  ("flipped", Bool c.Mine.flipped);
                                ])
                            checks) );
                   ]
                 else []))
          end
          else begin
            Format.printf
              "# mined %d constraint%s from %s (enumerated %d, pruned %d, evaluated %d; support >= %d)@."
              r.Mine.stats.Mine.accepted
              (if r.Mine.stats.Mine.accepted = 1 then "" else "s")
              path r.Mine.stats.Mine.enumerated r.Mine.stats.Mine.pruned
              r.Mine.stats.Mine.evaluated min_support;
            (match r.Mine.timed_out with
             | Some reason ->
               Format.printf "# timeout: %s (partial results)@."
                 (Budget.reason_name reason)
             | None -> ());
            if full then
              Format.printf "%a" Scenario.pp (Scenario.with_ccs s r.Mine.accepted)
            else
              List.iter
                (fun named -> Format.printf "%s@." (line named))
                r.Mine.accepted;
            List.iter
              (fun (sc : Score.scored) ->
                Format.printf "# near miss (confidence %.3f, support %d): %s@."
                  sc.Score.confidence sc.Score.support
                  sc.Score.candidate.Enumerate.key)
              r.Mine.near;
            if check then begin
              Format.printf "# cross-check (RCDP under mined V vs V = {}):@.";
              List.iter
                (fun (c : Mine.check_row) ->
                  Format.printf "#   %s: %s -> %s%s@." c.Mine.cq_name c.Mine.before
                    c.Mine.after
                    (if c.Mine.flipped then "  [flipped to Complete]" else ""))
                checks
            end
          end;
          if r.Mine.stats.Mine.accepted = 0 && r.Mine.timed_out = None then
            Format.eprintf
              "%s: no constraints accepted (enumerated %d, evaluated %d)@." path
              r.Mine.stats.Mine.enumerated r.Mine.stats.Mine.evaluated;
          (match r.Mine.timed_out with
           | Some reason ->
             Format.eprintf "%s: budget exhausted (%s); results are partial@." path
               (Budget.reason_name reason)
           | None -> ());
          0
        end)
  in
  let min_support_arg =
    Arg.(
      value & opt int 1
      & info [ "min-support" ] ~docv:"N"
          ~doc:"Accept only candidates with at least $(docv) witnesses in the instance")
  in
  let min_confidence_arg =
    Arg.(
      value & opt float 0.8
      & info [ "min-confidence" ] ~docv:"C"
          ~doc:
            "Report near-miss candidates at or above confidence $(docv); emission \
             always requires confidence 1.0 (the constraint must actually hold)")
  in
  let max_atoms_arg =
    Arg.(
      value & opt int Ric_mining.Enumerate.default.Ric_mining.Enumerate.max_atoms
      & info [ "max-atoms" ] ~docv:"N" ~doc:"Body-size bound for candidate queries")
  in
  let max_width_arg =
    Arg.(
      value & opt int Ric_mining.Enumerate.default.Ric_mining.Enumerate.max_width
      & info [ "max-width" ] ~docv:"N" ~doc:"Head / projection width bound")
  in
  let max_consts_arg =
    Arg.(
      value & opt int Ric_mining.Enumerate.default.Ric_mining.Enumerate.max_consts
      & info [ "max-consts" ] ~docv:"N"
          ~doc:
            "Refine candidates with constants only on columns with at most $(docv) \
             distinct values (0 disables)")
  in
  let no_cover_arg =
    Arg.(
      value & flag
      & info [ "no-cover" ]
          ~doc:
            "Keep every accepted constraint instead of reducing to a minimal cover \
             (constraints implied by an accepted more-general one are normally dropped)")
  in
  let check_arg =
    Arg.(
      value & flag
      & info [ "check" ]
          ~doc:
            "Cross-check: re-run the RCDP decider on every scenario query with the \
             mined constraints and report which ones flip to Complete")
  in
  let full_arg =
    Arg.(
      value & flag
      & info [ "full" ]
          ~doc:
            "Print the whole scenario with its constraint set replaced by the mined \
             one (parseable as-is) instead of just the constraint block")
  in
  let mine_timeout_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "timeout-ms" ] ~docv:"MS"
          ~doc:
            "Give mining at most $(docv) milliseconds; past that the constraints \
             accepted so far are emitted with a timeout marker instead of blocking")
  in
  Cmd.v
    (Cmd.info "mine"
       ~doc:
         "Induce containment constraints q(D) ⊆ p(Dm) from a scenario's data \
          (support/confidence rule mining over the compiled match kernel)")
    Term.(
      const run $ file_arg $ json_arg $ check_arg $ full_arg $ min_support_arg $ min_confidence_arg $ max_atoms_arg $ max_width_arg
      $ max_consts_arg $ no_cover_arg $ mine_timeout_arg)

(* ------------------------------------------------------------------ *)
(* Trace files. *)

let trace_group =
  let summarize_cmd =
    let run path top req_id =
      match Ric_text.Trace_summary.load path with
      | { Ric_text.Trace_summary.spans; malformed } ->
        let spans, not_found =
          match req_id with
          | None -> (spans, false)
          | Some rid ->
            let filtered = Ric_text.Trace_summary.filter_req_id rid spans in
            (filtered, filtered = [])
        in
        if not_found then begin
          Format.eprintf "no spans carry req_id %S (wrong id, or the run was not traced)@."
            (Option.get req_id);
          1
        end
        else begin
          let summary = Ric_text.Trace_summary.summarize ~top spans in
          Format.printf "%a"
            (fun ppf () -> Ric_text.Trace_summary.pp ppf ~malformed spans summary)
            ();
          0
        end
      | exception Sys_error msg ->
        Format.eprintf "%s@." msg;
        1
    in
    let trace_pos =
      Arg.(
        required
        & pos 0 (some file) None
        & info [] ~docv:"TRACE" ~doc:"A span file written by --trace")
    in
    let top_arg =
      Arg.(value & opt int 10 & info [ "top" ] ~docv:"N" ~doc:"How many slowest spans to list")
    in
    let req_id_filter_arg =
      Arg.(
        value
        & opt (some string) None
        & info [ "req-id" ] ~docv:"ID"
            ~doc:
              "Keep only the spans of one request: those stamped with this \
               correlation id, plus their whole subtrees")
    in
    Cmd.v
      (Cmd.info "summarize"
         ~doc:
           "Reconstruct a --trace span file: slowest spans, per-phase step rates \
            and the slowest call tree")
      Term.(const run $ trace_pos $ top_arg $ req_id_filter_arg)
  in
  Cmd.group (Cmd.info "trace" ~doc:"Inspect span-trace files written by --trace")
    [ summarize_cmd ]

(* ------------------------------------------------------------------ *)
(* The ricd service: serve / request / shutdown. *)

let socket_arg =
  Arg.(
    value
    & opt string Ric_service.Server.default_config.Ric_service.Server.socket_path
    & info [ "S"; "socket" ] ~docv:"PATH" ~doc:"Unix-domain socket of the daemon")

let serve_cmd =
  let run socket (_domains : int) queue max_conns read_deadline write_deadline root
      journal recover (_search : string) metrics trace flight verbose =
    Logs.set_reporter (Logs_fmt.reporter ());
    Logs.set_level (Some (if verbose then Logs.Info else Logs.App));
    match
      Ric_service.Server.run
        {
          Ric_service.Server.socket_path = socket;
          queue_capacity = queue;
          max_connections = max_conns;
          read_deadline_s = read_deadline;
          write_deadline_s = write_deadline;
          root;
          journal;
          recover;
          metrics;
          trace;
          flight;
        }
    with
    | () -> 0
    | exception Unix.Unix_error (e, _, arg) ->
      Format.eprintf "cannot serve on %s: %s %s@." socket (Unix.error_message e) arg;
      1
  in
  let domains_arg =
    Arg.(
      value & opt int 1
      & info [ "d"; "domains" ]
          ~doc:
            "Ignored: ricd decides on its one event-loop domain.  Still accepted so \
             existing command lines keep working")
  in
  let queue_arg =
    Arg.(
      value
      & opt int Ric_service.Server.default_config.Ric_service.Server.queue_capacity
      & info [ "queue" ]
          ~doc:
            "Admitted-request backlog; past it requests are shed with a structured \
             overloaded reply carrying retry-after-ms")
  in
  let max_conns_arg =
    Arg.(
      value
      & opt int Ric_service.Server.default_config.Ric_service.Server.max_connections
      & info [ "max-connections" ]
          ~doc:
            "Connections the event loop holds open at once; beyond it new sockets \
             get a best-effort overloaded frame and are closed")
  in
  let read_deadline_arg =
    Arg.(
      value
      & opt float Ric_service.Server.default_config.Ric_service.Server.read_deadline_s
      & info [ "read-deadline" ] ~docv:"S"
          ~doc:
            "Evict a connection that dangles a partial request frame for $(docv) \
             seconds (slow-loris defense)")
  in
  let write_deadline_arg =
    Arg.(
      value
      & opt float Ric_service.Server.default_config.Ric_service.Server.write_deadline_s
      & info [ "write-deadline" ] ~docv:"S"
          ~doc:"Evict a connection that accepts none of its reply bytes for $(docv) seconds")
  in
  let root_arg =
    Arg.(
      value
      & opt (some dir) None
      & info [ "root" ] ~docv:"DIR" ~doc:"Resolve relative scenario paths against $(docv)")
  in
  let journal_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "journal" ] ~docv:"FILE"
          ~doc:"Append session mutations to $(docv) so --recover can restore them")
  in
  let recover_arg =
    Arg.(
      value & flag
      & info [ "recover" ]
          ~doc:"Replay the journal before serving, restoring the previous run's sessions")
  in
  let metrics_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "metrics" ] ~docv:"PATH"
          ~doc:
            "Serve a Prometheus text-format snapshot on a second Unix socket at \
             $(docv) (one snapshot per connection; curl --unix-socket $(docv) \
             http://localhost/metrics)")
  in
  let trace_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:
            "Write JSON-lines span events to $(docv); summarize offline with ric \
             trace summarize $(docv)")
  in
  let flight_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "flight" ] ~docv:"FILE"
          ~doc:
            "Flight-recorder dump target (default: the command socket path plus \
             .flight.jsonl); the in-memory ring is written there on fatal exit, \
             SIGUSR1, or a dump request")
  in
  let verbose_arg =
    Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Log every request with its latency")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Run ricd: keep scenarios loaded, cache verdicts, decide over a socket")
    Term.(
      const run $ socket_arg $ domains_arg $ queue_arg $ max_conns_arg
      $ read_deadline_arg $ write_deadline_arg $ root_arg $ journal_arg
      $ recover_arg $ search_arg $ metrics_arg $ trace_arg $ flight_arg
      $ verbose_arg)

let rpc ?receive_timeout socket req =
  match
    Ric_service.Client.with_connection ?receive_timeout socket (fun c ->
        Ric_service.Client.rpc c req)
  with
  | response ->
    Format.printf "%a@." Ric_text.Json.pp response;
    (match response with
     | Ric_text.Json.Obj fields
       when List.assoc_opt "ok" fields = Some (Ric_text.Json.Bool false) -> 1
     | _ -> 0)
  | exception Unix.Unix_error (e, _, _) ->
    Format.eprintf "cannot reach ricd at %s: %s@." socket (Unix.error_message e);
    Format.eprintf "start it with: ric serve --socket %s@." socket;
    1
  | exception Ric_service.Client.Timeout ->
    (* still a structured result on stdout, like every other failure
       kind, so scripted callers can parse it; 124 matches timeout(1) *)
    Format.printf "%a@." Ric_text.Json.pp
      (Ric_service.Protocol.error ~kind:"timeout"
         (Printf.sprintf "no reply from ricd within %gs"
            (Option.value ~default:0. receive_timeout)));
    Format.eprintf "timed out waiting for a reply from ricd at %s@." socket;
    124
  | exception Failure msg ->
    Format.eprintf "%s@." msg;
    1

let receive_timeout_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "receive-timeout" ] ~docv:"S"
        ~doc:
          "Give up if no reply arrives within $(docv) seconds: print a structured \
           timeout result and exit 124 instead of blocking")

let session_pos =
  Arg.(required & pos 0 (some string) None & info [] ~docv:"SESSION" ~doc:"Session id")

let query_pos =
  Arg.(required & pos 1 (some string) None & info [] ~docv:"QUERY" ~doc:"Query name")

let nocache_arg =
  Arg.(value & flag & info [ "nocache" ] ~doc:"Bypass the verdict cache for this request")

let request_open_cmd =
  let run socket receive_timeout file name =
    rpc ?receive_timeout socket
      (Ric_service.Protocol.Open { path = Some file; source = None; name })
  in
  let file_pos =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"FILE" ~doc:"A .ric scenario file (resolved by the daemon)")
  in
  let name_arg =
    Arg.(value & opt (some string) None & info [ "name" ] ~doc:"Label for the session")
  in
  Cmd.v (Cmd.info "open" ~doc:"Load a scenario into a new server session")
    Term.(const run $ socket_arg $ receive_timeout_arg $ file_pos $ name_arg)

let timeout_ms_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "timeout-ms" ] ~docv:"MS"
        ~doc:
          "Give the decider at most $(docv) milliseconds; past that the response \
           carries a timeout verdict (never cached) instead of blocking")

let request_search_arg =
  Arg.(
    value
    & opt (some search_conv) None
    & info [ "search" ]
        ~doc:
          "Accepted for compatibility, always sequential: $(b,seq), $(b,inc), \
           $(b,par) or $(b,par:N), sent as the request's search field")

let explain_flag =
  Arg.(
    value & flag
    & info [ "explain" ]
        ~doc:
          "Compute fresh (cache bypassed) and attach a structured profile to the \
           reply: per-level step counts, per-constraint prunes, named counters")

let req_id_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "req-id" ] ~docv:"ID"
        ~doc:
          "Correlation id for this request (minted automatically when omitted); \
           echoed on the reply and stamped on the daemon's logs, spans and \
           flight-recorder events")

let request_decide_cmd op doc ctor =
  let run socket receive_timeout session query nocache timeout_ms search req_id
      explain =
    rpc ?receive_timeout socket
      (ctor ~session ~query ~nocache ~timeout_ms ~search ~req_id ~explain)
  in
  Cmd.v (Cmd.info op ~doc)
    Term.(
      const run $ socket_arg $ receive_timeout_arg $ session_pos $ query_pos
      $ nocache_arg $ timeout_ms_arg $ request_search_arg $ req_id_arg
      $ explain_flag)

(* bare digits are integers; wrap a cell in double quotes to force a
   string (e.g. "01", matching the .ric row syntax) *)
let parse_cell s =
  let n = String.length s in
  if n >= 2 && s.[0] = '"' && s.[n - 1] = '"' then
    Ric_relational.Value.Str (String.sub s 1 (n - 2))
  else
    match int_of_string_opt s with
    | Some n -> Ric_relational.Value.Int n
    | None -> Ric_relational.Value.Str s

let request_insert_cmd =
  let run socket receive_timeout session rel cells =
    rpc ?receive_timeout socket
      (Ric_service.Protocol.Insert
         { session; rel; rows = [ List.map parse_cell cells ] })
  in
  let rel_pos =
    Arg.(required & pos 1 (some string) None & info [] ~docv:"REL" ~doc:"Relation name")
  in
  let cells_pos =
    Arg.(
      non_empty
      & pos_right 1 string []
      & info [] ~docv:"VALUE" ~doc:"Cell values (integers stay integers)")
  in
  Cmd.v
    (Cmd.info "insert"
       ~doc:"Insert one tuple into a session's database (epoch bump + cache migration)")
    Term.(const run $ socket_arg $ receive_timeout_arg $ session_pos $ rel_pos $ cells_pos)

(* Each SPEC is REL:v1,v2,... — one row.  Consecutive specs for the
   same relation merge into one batch, so the whole command travels as
   a single insert_bulk request: one epoch bump, one journal append,
   one cache migration, however many rows it carries. *)
let parse_row_spec s =
  match String.index_opt s ':' with
  | None | Some 0 ->
    Error (Printf.sprintf "bad row spec %S (want REL:v1,v2,...)" s)
  | Some i ->
    let rel = String.sub s 0 i in
    let cells = String.sub s (i + 1) (String.length s - i - 1) in
    Ok (rel, List.map parse_cell (String.split_on_char ',' cells))

let request_insert_bulk_cmd =
  let run socket receive_timeout session specs =
    let rec collect acc = function
      | [] -> Ok (List.rev_map (fun (rel, rows) -> (rel, List.rev rows)) acc)
      | spec :: rest -> (
        match parse_row_spec spec with
        | Error _ as e -> e
        | Ok (rel, row) -> (
          match acc with
          | (rel', rows) :: tail when rel' = rel ->
            collect ((rel', row :: rows) :: tail) rest
          | acc -> collect ((rel, [ row ]) :: acc) rest))
    in
    match collect [] specs with
    | Error msg ->
      Format.eprintf "%s@." msg;
      2
    | Ok batches ->
      rpc ?receive_timeout socket
        (Ric_service.Protocol.Insert_bulk { session; batches })
  in
  let specs_pos =
    Arg.(
      non_empty
      & pos_right 0 string []
      & info [] ~docv:"SPEC"
          ~doc:
            "Rows as REL:v1,v2,... (one spec per row; integers stay integers, \
             quote a cell to force a string)")
  in
  Cmd.v
    (Cmd.info "insert-bulk"
       ~doc:
         "Insert many rows across relations as one mutation (single epoch bump, \
          journal append and cache migration)")
    Term.(const run $ socket_arg $ receive_timeout_arg $ session_pos $ specs_pos)

let request_simple_cmd op doc req =
  let run socket receive_timeout = rpc ?receive_timeout socket req in
  Cmd.v (Cmd.info op ~doc) Term.(const run $ socket_arg $ receive_timeout_arg)

let request_mine_cmd =
  let run socket receive_timeout session nocache timeout_ms min_support =
    rpc ?receive_timeout socket
      (Ric_service.Protocol.Mine
         { session; nocache; timeout_ms; min_support; workers = None })
  in
  let min_support_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "min-support" ] ~docv:"N" ~doc:"Witness threshold (server default 1)")
  in
  Cmd.v
    (Cmd.info "mine"
       ~doc:"Induce containment constraints from a session's (Dm, D) pair")
    Term.(
      const run $ socket_arg $ receive_timeout_arg $ session_pos $ nocache_arg
      $ timeout_ms_arg $ min_support_arg)

let request_close_cmd =
  let run socket receive_timeout session =
    rpc ?receive_timeout socket (Ric_service.Protocol.Close { session })
  in
  Cmd.v (Cmd.info "close" ~doc:"Close a session and purge its cached verdicts")
    Term.(const run $ socket_arg $ receive_timeout_arg $ session_pos)

let request_group =
  Cmd.group
    (Cmd.info "request" ~doc:"Talk to a running ricd (one framed JSON request per call)")
    [
      request_open_cmd;
      request_decide_cmd "rcdp" "Is the session's database complete for a query?"
        (fun ~session ~query ~nocache ~timeout_ms ~search ~req_id ~explain ->
          Ric_service.Protocol.Rcdp
            { session; query; nocache; timeout_ms; search; req_id; explain });
      request_decide_cmd "rcqp" "Can any database be complete for a session query?"
        (fun ~session ~query ~nocache ~timeout_ms ~search ~req_id ~explain ->
          Ric_service.Protocol.Rcqp
            { session; query; nocache; timeout_ms; search; req_id; explain });
      request_decide_cmd "audit" "Full completeness audit of a session query"
        (fun ~session ~query ~nocache ~timeout_ms ~search ~req_id ~explain ->
          Ric_service.Protocol.Audit
            { session; query; nocache; timeout_ms; search; req_id; explain });
      request_mine_cmd;
      request_insert_cmd;
      request_insert_bulk_cmd;
      request_close_cmd;
      request_simple_cmd "ping" "Liveness probe" Ric_service.Protocol.Ping;
      request_simple_cmd "stats" "Sessions, cache hit rates, per-op counters"
        Ric_service.Protocol.Stats;
      request_simple_cmd "dump"
        "Write the daemon's flight recorder to its configured dump path"
        Ric_service.Protocol.Dump;
    ]

let shutdown_cmd =
  let run socket receive_timeout =
    rpc ?receive_timeout socket Ric_service.Protocol.Shutdown
  in
  Cmd.v (Cmd.info "shutdown" ~doc:"Ask a running ricd to stop")
    Term.(const run $ socket_arg $ receive_timeout_arg)

(* A dependency-free scrape client for the --metrics socket, so the
   smoke tests (and curl-less machines) can read the exposition.
   Returns the response body (headers end at the first blank line).
   @raise Unix.Unix_error when the socket is unreachable. *)
let fetch_metrics socket =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match
    Unix.connect fd (Unix.ADDR_UNIX socket);
    let req = Bytes.of_string "GET /metrics HTTP/1.0\r\n\r\n" in
    ignore (Unix.write fd req 0 (Bytes.length req));
    (try Unix.shutdown fd Unix.SHUTDOWN_SEND with Unix.Unix_error _ -> ());
    let buf = Buffer.create 4096 in
    let chunk = Bytes.create 4096 in
    let rec drain () =
      match Unix.read fd chunk 0 4096 with
      | 0 -> ()
      | n ->
        Buffer.add_subbytes buf chunk 0 n;
        drain ()
    in
    drain ();
    Buffer.contents buf
  with
  | response ->
    (try Unix.close fd with Unix.Unix_error _ -> ());
    let n = String.length response in
    let rec find i =
      if i + 4 > n then None
      else if String.sub response i 4 = "\r\n\r\n" then Some (i + 4)
      else find (i + 1)
    in
    (match find 0 with
     | Some i -> String.sub response i (n - i)
     | None -> response)
  | exception e ->
    (try Unix.close fd with Unix.Unix_error _ -> ());
    raise e

let msocket_arg =
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"SOCKET" ~doc:"The daemon's --metrics socket path")

let scrape_cmd =
  let run socket =
    match fetch_metrics socket with
    | body ->
      print_string body;
      0
    | exception Unix.Unix_error (e, _, _) ->
      Format.eprintf "cannot scrape %s: %s@." socket (Unix.error_message e);
      Format.eprintf "serve metrics with: ric serve --metrics %s@." socket;
      1
  in
  Cmd.v
    (Cmd.info "scrape"
       ~doc:"Fetch one Prometheus snapshot from a ricd --metrics socket (curl-free)")
    Term.(const run $ msocket_arg)

(* ------------------------------------------------------------------ *)
(* top: a live dashboard over the metrics socket.  Scrapes the
   Prometheus exposition at a fixed cadence, differences consecutive
   snapshots into rates, and redraws in place with ANSI escapes. *)

module Top = struct
  (* One parsed sample line: full key (name + rendered label block,
     exactly as exposed) to value.  Keeping the raw key sidesteps a
     label parser; lookups below match by exact key or by prefix. *)
  let parse body =
    String.split_on_char '\n' body
    |> List.filter_map (fun line ->
           let line = String.trim line in
           if line = "" || line.[0] = '#' then None
           else
             match String.rindex_opt line ' ' with
             | None -> None
             | Some i ->
               let key = String.sub line 0 i in
               float_of_string_opt
                 (String.sub line (i + 1) (String.length line - i - 1))
               |> Option.map (fun v -> (key, v)))

  let value m key = match List.assoc_opt key m with Some v -> v | None -> 0.

  (* sum over every label combination of one family, excluding the
     _bucket/_sum/_count expansions of a histogram of the same stem *)
  let sum_family m name =
    List.fold_left
      (fun acc (k, v) ->
        if
          String.length k >= String.length name
          && String.sub k 0 (String.length name) = name
          && (String.length k = String.length name
             || k.[String.length name] = '{')
        then acc +. v
        else acc)
      0. m

  (* cumulative bucket counts of one histogram family, summed across
     label sets, as (le, count) sorted by le *)
  let buckets m name =
    let prefix = name ^ "_bucket{" in
    let tbl = Hashtbl.create 16 in
    List.iter
      (fun (k, v) ->
        if
          String.length k > String.length prefix
          && String.sub k 0 (String.length prefix) = prefix
        then begin
          (* the le label is last in the block: le="..."} *)
          match String.rindex_opt k '=' with
          | Some i when i + 2 < String.length k ->
            let raw = String.sub k (i + 2) (String.length k - i - 2) in
            let raw =
              match String.index_opt raw '"' with
              | Some j -> String.sub raw 0 j
              | None -> raw
            in
            let le =
              if raw = "+Inf" then infinity else Option.value ~default:nan (float_of_string_opt raw)
            in
            if not (Float.is_nan le) then
              Hashtbl.replace tbl le
                (v +. Option.value ~default:0. (Hashtbl.find_opt tbl le))
          | _ -> ()
        end)
      m;
    Hashtbl.fold (fun le c acc -> (le, c) :: acc) tbl []
    |> List.sort (fun (a, _) (b, _) -> compare a b)

  (* quantile of the *delta* histogram between two snapshots: the
     latency distribution of just the last interval *)
  let delta_quantile ~q prev cur name =
    let pb = buckets prev name and cb = buckets cur name in
    let delta =
      List.map
        (fun (le, c) ->
          let p = try List.assoc le pb with Not_found -> 0. in
          (le, max 0. (c -. p)))
        cb
    in
    match List.rev delta with
    | [] -> None
    | (_, total) :: _ when total <= 0. -> None
    | (_, total) :: _ ->
      let want = q *. total in
      List.find_opt (fun (_, c) -> c >= want) delta |> Option.map fst

  let pp_quantile ppf = function
    | None -> Format.fprintf ppf "%8s" "-"
    | Some le when le = infinity -> Format.fprintf ppf "%8s" ">max"
    | Some le ->
      if le < 1. then Format.fprintf ppf "%6.2fms" (le *. 1000.)
      else Format.fprintf ppf "%7.2fs" le

  let rate dt a = if dt <= 0. then 0. else a /. dt

  let draw ~socket ~dt ~frame prev cur =
    let d name = value cur name -. value prev name in
    let df name = sum_family cur name -. sum_family prev name in
    let throughput = rate dt (df "ric_requests_total") in
    let shed = rate dt (d "ric_server_shed_total") in
    let queue = value cur "ric_server_queue_depth" in
    let conns = value cur "ric_server_connections_active" in
    let sessions = value cur "ric_sessions_open" in
    let steps decider =
      rate dt
        (d (Printf.sprintf "ric_search_steps_total{decider=\"%s\"}" decider))
    in
    let intern = rate dt (d "ric_intern_lock_acquisitions_total") in
    let hits = d "ric_cache_hits_total" and misses = d "ric_cache_misses_total" in
    let hit_pct =
      if hits +. misses <= 0. then nan else 100. *. hits /. (hits +. misses)
    in
    let p50 = delta_quantile ~q:0.5 prev cur "ric_op_latency_seconds" in
    let p99 = delta_quantile ~q:0.99 prev cur "ric_op_latency_seconds" in
    (* home + clear-to-end once per frame: repaint without scrollback *)
    if frame = 0 then print_string "\027[2J";
    print_string "\027[H";
    Format.printf "ric top — %s  (interval %.1fs)\027[K@." socket dt;
    Format.printf "@[<h>\027[K@]@.";
    Format.printf "  requests   %8.1f/s    shed %8.1f/s    cache hit %s\027[K@."
      throughput shed
      (if Float.is_nan hit_pct then "   -" else Printf.sprintf "%3.0f%%" hit_pct);
    Format.printf "  latency    p50 %a   p99 %a\027[K@."
      pp_quantile p50 pp_quantile p99;
    Format.printf "  queue      %8.0f depth   %8.0f conns   %8.0f sessions\027[K@."
      queue conns sessions;
    Format.printf "  steps/s    rcdp %10.0f    rcqp %10.0f\027[K@."
      (steps "rcdp") (steps "rcqp");
    Format.printf "  intern     %8.1f lock acquisitions/s\027[K@." intern;
    print_string "\027[J";
    flush stdout
end

let top_cmd =
  let run socket interval iterations =
    let interval = max 0.1 interval in
    let rec loop frame prev =
      match fetch_metrics socket with
      | body ->
        let cur = Top.parse body in
        (match prev with
         | Some p -> Top.draw ~socket ~dt:interval ~frame p cur
         | None -> ());
        let next = frame + if prev = None then 0 else 1 in
        if iterations > 0 && next >= iterations then 0
        else begin
          Unix.sleepf interval;
          loop next (Some cur)
        end
      | exception Unix.Unix_error (e, _, _) ->
        Format.eprintf "cannot scrape %s: %s@." socket (Unix.error_message e);
        Format.eprintf "serve metrics with: ric serve --metrics %s@." socket;
        1
    in
    loop 0 None
  in
  let interval_arg =
    Arg.(
      value & opt float 1.0
      & info [ "i"; "interval" ] ~docv:"S" ~doc:"Seconds between scrapes (min 0.1)")
  in
  let iterations_arg =
    Arg.(
      value & opt int 0
      & info [ "n"; "iterations" ] ~docv:"N"
          ~doc:"Render $(docv) frames then exit (0 = run until interrupted)")
  in
  Cmd.v
    (Cmd.info "top"
       ~doc:
         "Live terminal dashboard over a ricd --metrics socket: throughput, shed \
          rate, queue depth, latency quantiles, per-decider step rates")
    Term.(const run $ msocket_arg $ interval_arg $ iterations_arg)

(* ------------------------------------------------------------------ *)
(* gen: emit parameterised .ric scenario families at scale. *)

let gen_cmd =
  let family_conv =
    let parse s = Result.map_error (fun m -> `Msg m) (Gen.family_of_string s) in
    let print ppf f = Format.pp_print_string ppf (Gen.family_to_string f) in
    Arg.conv ~docv:"FAMILY" (parse, print)
  in
  let family_pos =
    Arg.(
      required
      & pos 0 (some family_conv) None
      & info [] ~docv:"FAMILY"
          ~doc:"Scenario family: $(b,triple), $(b,telco) or $(b,ladder)")
  in
  let tuples_arg =
    Arg.(
      value & opt int 1000
      & info [ "t"; "tuples" ] ~docv:"N"
          ~doc:"Database rows for the bulk families (up to 1,000,000)")
  in
  let rung_arg =
    Arg.(
      value & opt int 1
      & info [ "r"; "rung" ] ~docv:"R"
          ~doc:"Hardness rung for the ladder family")
  in
  let out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "out" ] ~docv:"FILE" ~doc:"Write to $(docv) instead of stdout")
  in
  let run family tuples seed rung out =
    let emit oc =
      Gen.emit family ~tuples ~seed ~rung (output_string oc);
      flush oc
    in
    match
      match out with
      | None -> emit stdout
      | Some path ->
        let oc = open_out path in
        Fun.protect ~finally:(fun () -> close_out_noerr oc) (fun () -> emit oc)
    with
    | () -> 0
    | exception Invalid_argument msg ->
      Format.eprintf "%s@." msg;
      1
    | exception Sys_error msg ->
      Format.eprintf "%s@." msg;
      1
  in
  Cmd.v
    (Cmd.info "gen"
       ~doc:
         "Emit a parameterised .ric scenario family, streamed row-by-row (memory \
          stays bounded whatever --tuples)")
    Term.(const run $ family_pos $ tuples_arg $ seed_arg $ rung_arg $ out_arg)

let () =
  let doc = "relative information completeness workbench (Fan & Geerts, PODS 2009)" in
  let info = Cmd.info "ric" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval'
       (Cmd.group info
          [
            audit_cmd;
            rcdp_cmd;
            rcqp_cmd;
            reduction_cmd;
            mine_cmd;
            gen_cmd;
            file_group;
            explain_cmd;
            trace_group;
            serve_cmd;
            request_group;
            shutdown_cmd;
            scrape_cmd;
            top_cmd;
          ]))

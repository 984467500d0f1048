open Ric_relational
open Ric_query
open Ric_constraints

exception Unsupported of string
exception Not_partially_closed of string

type counterexample = {
  cex_valuation : Valuation.t;
  cex_extension : Database.t;
  cex_answer : Tuple.t;
  cex_disjunct : int;
}

type verdict =
  | Complete
  | Incomplete of counterexample

type stats = {
  valuations_visited : int;
  branches_pruned : int;
}

module Metrics = Ric_obs.Metrics
module Trace = Ric_obs.Trace

(* All counters are folded in once per decide call (from the local
   [visited]/[pruned] refs and the budget's step counter), never from
   the search hot path. *)
let m_decides =
  Metrics.counter ~help:"decide calls completed or timed out"
    ~labels:[ ("decider", "rcdp") ] "ric_decides_total"

let m_timeouts =
  Metrics.counter ~help:"decide calls aborted by a spent budget"
    ~labels:[ ("decider", "rcdp") ] "ric_decide_timeouts_total"

let m_steps =
  Metrics.counter ~help:"valuation-search steps (budget ticks)"
    ~labels:[ ("decider", "rcdp") ] "ric_search_steps_total"

let m_visited =
  Metrics.counter ~help:"valid valuations visited by the RCDP search"
    "ric_rcdp_valuations_visited_total"

let m_pruned =
  Metrics.counter ~help:"search branches pruned by a violated constraint"
    "ric_rcdp_branches_pruned_total"


(* ------------------------------------------------------------------ *)
(* Constraint-side helpers. *)

let cc_constants ccs =
  List.concat_map Containment.constants ccs |> List.sort_uniq Value.compare

let require_monotone_ccs ccs =
  List.iter
    (fun cc ->
      if not (Containment.lhs_monotone cc) then
        raise
          (Unsupported
             (Printf.sprintf
                "RCDP is undecidable for %s containment constraints (Theorem 3.1); use semi_decide"
                (Containment.language_name cc))))
    ccs

(* ------------------------------------------------------------------ *)
(* The Σ₂ᵖ search of Theorem 3.6: enumerate valid valuations of one
   tableau over the active domain, atom by atom, pruning when the
   partial extension already violates a (monotone) constraint.

   [ind_mode] switches the constraint check from [D ∪ μ(T_Q)]
   (condition C2, Proposition 3.3) to [μ(T_Q)] alone (condition C3,
   Corollary 3.4 — valid when every CC is an IND). *)

let search_disjunct ~clock ~profile ~checker ~ind_mode ~db ~qd ~adom ~visited
    ~pruned ~disjunct (tab : Tableau.t) =
  let found = ref None in
  (* [db] is partially closed: checked at entry, or by contract *)
  let mode = if ind_mode then `Delta_only else `Closed_base db in
  let search = Valuation_search.compile ~checker ~adom tab in
  let (_ : bool) =
    Valuation_search.iter ~budget:clock ?profile
      ~on_prune:(fun () -> incr pruned)
      search ~mode
      (fun leaf ->
        incr visited;
        let ans = Valuation_search.tuple leaf tab.Tableau.summary in
        if not (Relation.mem ans qd) then begin
          found :=
            Some
              {
                cex_valuation = Valuation_search.valuation leaf;
                cex_extension = Valuation_search.extension leaf;
                cex_answer = ans;
                cex_disjunct = disjunct;
              };
          true
        end
        else false)
  in
  !found

let decide_ucq_with ~ind_mode ?(clock = Budget.unlimited)
    ?(check_partially_closed = true) ?checker ?collect_stats ?profile ~schema ~master
    ~ccs ~db ucq =
  Trace.with_span "rcdp.decide" @@ fun sp ->
  (match Budget.label clock with
   | Some rid -> Trace.set_str sp "req_id" rid
   | None -> ());
  (* the clock may be shared across decide calls (Guidance.audit), so
     charge only this call's delta to the global step counter *)
  let steps0 = Budget.steps clock in
  (* an already-exhausted clock (timeout_ms = 0, a spent step cap)
     must abort before the partial-closure check does any work *)
  Budget.check_now clock;
  require_monotone_ccs ccs;
  (* one checker for the entry check and every disjunct's search; D's
     relations keep the indexes the entry check, Q(D) and the searches
     build, so D is indexed once for all three *)
  let checker =
    match checker with
    | Some chk -> chk
    | None -> Checker.create ~master ccs
  in
  if
    check_partially_closed
    && Checker.check checker ~base:db ~delta:(Database.empty (Database.schema db)) <> None
  then
    raise
      (Not_partially_closed
         "RCDP: the input database does not satisfy the containment constraints");
  let qd = Ucq.eval db ucq in
  let tableaux = List.filter_map (Tableau.of_cq schema) ucq in
  (* One fresh value per query-tableau variable (Section 3.2's New).
     Constraint variables need none here: Proposition 3.3's small-model
     argument only renames query valuations, and the constraints are
     checked by direct evaluation, never instantiated. *)
  let fresh_count =
    List.fold_left (fun n t -> n + List.length (Tableau.vars t)) 0 tableaux + 1
  in
  let adom =
    let cc_consts =
      Value.union_sorted (Adom.referenced_master_constants ~master ccs) (cc_constants ccs)
    in
    Adom.build ~db ~schemas:[ schema ]
      ~master:(Database.empty (Database.schema master))
      ~cc_constants:cc_consts ~query_constants:(Ucq.constants ucq) ~fresh_count ()
  in
  (match profile with
   | Some p -> Ric_obs.Profile.note p "decider" "rcdp"
   | None -> ());
  let visited = ref 0 and pruned = ref 0 in
  let record_stats () =
    (match collect_stats with
     | Some r -> r := { valuations_visited = !visited; branches_pruned = !pruned }
     | None -> ());
    let steps = Budget.steps clock - steps0 in
    Metrics.incr m_decides;
    Metrics.add m_visited !visited;
    Metrics.add m_pruned !pruned;
    Metrics.add m_steps steps;
    Trace.set_int sp "visited" !visited;
    Trace.set_int sp "pruned" !pruned;
    Trace.set_int sp "steps" steps
  in
  let rec scan i = function
    | [] -> Complete
    | tab :: rest ->
      let found =
        Trace.with_span "rcdp.disjunct" @@ fun dsp ->
        Trace.set_int dsp "disjunct" i;
        let r =
          search_disjunct ~clock ~profile ~checker ~ind_mode ~db ~qd ~adom
            ~visited ~pruned ~disjunct:i tab
        in
        Trace.set_bool dsp "counterexample" (r <> None);
        r
      in
      (match found with
       | Some cex -> Incomplete cex
       | None -> scan (i + 1) rest)
  in
  match scan 0 tableaux with
  | verdict ->
    record_stats ();
    Trace.set_str sp "verdict"
      (match verdict with Complete -> "complete" | Incomplete _ -> "incomplete");
    verdict
  | exception (Budget.Exhausted reason as e) ->
    (* leave the work-done counters readable for the timeout report *)
    record_stats ();
    Metrics.incr m_timeouts;
    Trace.set_str sp "verdict" "timeout";
    Trace.set_str sp "reason" (Budget.reason_name reason);
    raise e

let decide ?clock ?check_partially_closed ?checker ?collect_stats ?profile ~schema
    ~master ~ccs ~db q =
  match Lang.as_ucq q with
  | None ->
    raise
      (Unsupported
         (Printf.sprintf "RCDP is undecidable for %s queries (Theorem 3.1); use semi_decide"
            (Lang.language_name q)))
  | Some ucq ->
    decide_ucq_with ~ind_mode:false ?clock ?check_partially_closed ?checker
      ?collect_stats ?profile ~schema ~master ~ccs ~db ucq

let decide_ind ?clock ?check_partially_closed ~schema ~master ~inds ~db q =
  let ccs = List.map (Ind.to_cc schema) inds in
  match Lang.as_ucq q with
  | None ->
    raise
      (Unsupported
         (Printf.sprintf "RCDP is undecidable for %s queries (Theorem 3.1); use semi_decide"
            (Lang.language_name q)))
  | Some ucq ->
    decide_ucq_with ~ind_mode:true ?clock ?check_partially_closed ~schema ~master
      ~ccs ~db ucq

(* ------------------------------------------------------------------ *)
(* Bounded semi-decision for the undecidable rows of Table I. *)

type semi_verdict =
  | Refuted of counterexample
  | No_counterexample of {
      max_tuples : int;
      candidate_values : int;
    }

let semi_decide ?(clock = Budget.unlimited) ?(max_tuples = 2) ?(fresh_values = 2) ~schema
    ~master ~ccs ~db q =
  Trace.with_span "rcdp.semi_decide" @@ fun sp ->
  Trace.set_int sp "max_tuples" max_tuples;
  Budget.check_now clock;
  let adom =
    Adom.build ~db ~schemas:[ schema ] ~master
      ~cc_constants:(cc_constants ccs)
      ~query_constants:(Lang.constants q) ~fresh_count:fresh_values ()
  in
  let values = Adom.all adom in
  (* Candidate tuples: every relation of the schema, every combination
     of per-column candidates. *)
  let candidate_tuples =
    List.concat_map
      (fun (r : Schema.relation_schema) ->
        let col_cands =
          List.map
            (fun (a : Schema.attribute) ->
              match Domain.values a.Schema.attr_dom with
              | Some vs -> vs
              | None -> values)
            r.Schema.attrs
        in
        let rec product = function
          | [] -> [ [] ]
          | c :: rest ->
            let tails = product rest in
            List.concat_map (fun v -> List.map (fun tl -> v :: tl) tails) c
        in
        List.map (fun vs -> (r.Schema.rel_name, Tuple.make vs)) (product col_cands))
      (Schema.relations schema)
  in
  let candidates = Array.of_list candidate_tuples in
  let qd = Lang.eval db q in
  (* one checker for the whole subset enumeration: RHS projections
     cached, [db] indexed once, deltas joined as overlays *)
  let chk = Checker.create ~master ccs in
  let found = ref None in
  (* Enumerate subsets of at most [max_tuples] candidates (indices
     strictly increasing), smallest first. *)
  let rec grow start delta count =
    if !found <> None then ()
    else begin
      Budget.tick clock;
      if count > 0 then begin
        let combined = Database.union db delta in
        if
          Checker.check chk ~base:db ~delta = None
          && not (Relation.equal (Lang.eval combined q) qd)
        then begin
          (* shrink to the answer tuple difference for the report *)
          let answers = Lang.eval combined q in
          let diff = Relation.diff answers qd in
          let witness =
            if Relation.is_empty diff then
              (* FO can also lose answers; report any answer of Q(D) *)
              List.hd (Relation.elements (Relation.diff qd answers))
            else List.hd (Relation.elements diff)
          in
          found :=
            Some
              {
                cex_valuation = Valuation.empty;
                cex_extension = delta;
                cex_answer = witness;
                cex_disjunct = 0;
              }
        end
      end;
      if !found = None && count < max_tuples then
        for i = start to Array.length candidates - 1 do
          if !found = None then begin
            let rel, tuple = candidates.(i) in
            let already =
              Relation.mem tuple (Database.relation (Database.union db delta) rel)
            in
            if not already then grow (i + 1) (Database.add_tuple delta rel tuple) (count + 1)
          end
        done
    end
  in
  grow 0 (Database.empty schema) 0;
  match !found with
  | Some cex -> Refuted cex
  | None ->
    No_counterexample { max_tuples; candidate_values = List.length values }


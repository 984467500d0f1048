open Ric_relational
open Ric_query
open Ric_constraints

exception Unsupported of string

type verdict =
  | Nonempty of {
      witness : Database.t option;
      reason : string;
    }
  | Empty of { reason : string }
  | Unknown of { reason : string }

let verdict_name = function
  | Nonempty _ -> "nonempty"
  | Empty _ -> "empty"
  | Unknown _ -> "unknown"

module Metrics = Ric_obs.Metrics
module Trace = Ric_obs.Trace
module Profile = Ric_obs.Profile

(* Counters are folded in per phase (pool built, DFS finished, decide
   returned), never inside the nested enumerations. *)
let m_decides =
  Metrics.counter ~help:"decide calls completed or timed out"
    ~labels:[ ("decider", "rcqp") ] "ric_decides_total"

let m_timeouts =
  Metrics.counter ~help:"decide calls aborted by a spent budget"
    ~labels:[ ("decider", "rcqp") ] "ric_decide_timeouts_total"

let m_steps =
  Metrics.counter ~help:"valuation-search steps (budget ticks)"
    ~labels:[ ("decider", "rcqp") ] "ric_search_steps_total"

let m_e2_nodes =
  Metrics.counter ~help:"valuation-set DFS nodes expanded by the E2 search"
    "ric_rcqp_e2_nodes_total"

let m_pool_candidates =
  Metrics.counter ~help:"candidate-pool instantiations generated"
    "ric_rcqp_pool_candidates_total"

type budget = {
  max_pool : int;
  max_nodes : int;
  max_valuations : int;
  pool_fresh : int;
}

let default_budget =
  { max_pool = 4000; max_nodes = 200_000; max_valuations = 200_000; pool_fresh = 3 }

(* ------------------------------------------------------------------ *)
(* Shared helpers. *)

let as_ucq_or_raise problem q =
  match Lang.as_ucq q with
  | Some ucq -> ucq
  | None ->
    raise
      (Unsupported
         (Printf.sprintf "%s is undecidable for %s queries (Theorem 4.1); use semi_decide"
            problem (Lang.language_name q)))

let require_monotone_ccs ccs =
  List.iter
    (fun cc ->
      if not (Containment.lhs_monotone cc) then
        raise
          (Unsupported
             (Printf.sprintf
                "RCQP is undecidable for %s containment constraints (Theorem 4.1); use \
                 semi_decide"
                (Containment.language_name cc))))
    ccs

let cc_constants ccs =
  List.concat_map Containment.constants ccs |> List.sort_uniq Value.compare

let cc_var_count ccs =
  List.fold_left (fun n cc -> n + Lang.var_count cc.Containment.lhs) 0 ccs

(* Two-tier active domain (Section 4.2's [Adom = constants ∪ New]):
   the candidate pool for valuation sets of V draws from the first
   [pool_fresh] fresh values only, while query-tableau valuations may
   additionally use one reserved fresh value per query variable.  The
   reserved values can never enter a bounding set, which is what makes
   "an unbounded fresh output value exists" detectable. *)
let build_adoms ~budget ~schema ~master ~ccs ~ucq =
  (* only the referenced master constants: the search space stays at
     the size of the instance, not of the whole master repository *)
  let cc_consts =
    Value.union_sorted (Adom.referenced_master_constants ~master ccs) (cc_constants ccs)
  in
  let pool_fresh = min budget.pool_fresh (max 1 (cc_var_count ccs)) in
  let q_fresh = List.length (Ucq.vars ucq) + 1 in
  let empty_master = Database.empty (Database.schema master) in
  let adom_pool =
    Adom.build ~schemas:[ schema ] ~master:empty_master ~cc_constants:cc_consts
      ~query_constants:(Ucq.constants ucq) ~fresh_count:pool_fresh ()
  in
  let adom_mu =
    Adom.build ~schemas:[ schema ] ~master:empty_master ~cc_constants:cc_consts
      ~query_constants:(Ucq.constants ucq)
      ~fresh_count:(pool_fresh + q_fresh) ()
  in
  (adom_pool, adom_mu)

let satisfiable_tableaux schema ucq =
  List.filter_map
    (fun cq -> if Cq.satisfiable schema cq then Tableau.of_cq schema cq else None)
    ucq

(* Summary variables with an infinite effective domain — the variables
   conditions E2–E4 must bound. *)
let infinite_summary_vars (tab : Tableau.t) =
  let doms = Tableau.var_domains tab in
  List.filter_map
    (function
      | Term.Var x ->
        (match List.assoc_opt x doms with
         | Some (Domain.Finite _) -> None
         | Some Domain.Infinite | None -> Some x)
      | Term.Const _ -> None)
    tab.Tableau.summary
  |> List.sort_uniq String.compare

(* Positions (relation, column) where a variable occurs in the
   patterns. *)
let occurrences (tab : Tableau.t) x =
  List.concat_map
    (fun (a : Atom.t) ->
      List.concat
        (List.mapi
           (fun i t -> if Term.equal t (Term.Var x) then [ (a.Atom.rel, i) ] else [])
           a.Atom.args))
    tab.Tableau.patterns

(* ------------------------------------------------------------------ *)
(* LC = INDs: Proposition 4.3 / Theorem 4.5(1).  Exact and cheap. *)

let ind_witness ~clock ?profile ~budget ~schema searches =
  let module VS = Set.Make (Value) in
  let witness = ref (Database.empty schema) in
  let count = ref 0 in
  let exceeded = ref false in
  List.iter
    (fun ((tab : Tableau.t), search) ->
      let summary_vars =
        List.filter_map
          (function
            | Term.Var x -> Some x
            | Term.Const _ -> None)
          tab.Tableau.summary
        |> List.sort_uniq String.compare
      in
      let covered : (string, VS.t) Hashtbl.t = Hashtbl.create 8 in
      let got_any = ref false in
      let (_ : bool) =
        Valuation_search.iter ~budget:clock ?profile search ~mode:`Delta_only
          (fun leaf ->
            incr count;
            if !count > budget.max_valuations then begin
              exceeded := true;
              true
            end
            else begin
              let fresh_pair =
                List.exists
                  (fun y ->
                    match Valuation_search.value leaf y with
                    | None -> false
                    | Some c ->
                      let seen =
                        Option.value ~default:VS.empty (Hashtbl.find_opt covered y)
                      in
                      not (VS.mem c seen))
                  summary_vars
              in
              if fresh_pair || not !got_any then begin
                got_any := true;
                List.iter
                  (fun y ->
                    match Valuation_search.value leaf y with
                    | None -> ()
                    | Some c ->
                      let seen =
                        Option.value ~default:VS.empty (Hashtbl.find_opt covered y)
                      in
                      Hashtbl.replace covered y (VS.add c seen))
                  summary_vars;
                witness := Database.union !witness (Valuation_search.extension leaf)
              end;
              false
            end)
      in
      ())
    searches;
  if !exceeded then None else Some !witness

(* Spans/counters around the decide entry points: [with_decide_obs]
   stamps verdict, step delta and timeout on whichever path the
   decision takes.  The clock may be shared across calls
   (Guidance.audit), so only this call's step delta is charged. *)
let with_decide_obs ~name ~clock f =
  Trace.with_span name @@ fun sp ->
  (match Budget.label clock with
   | Some rid -> Trace.set_str sp "req_id" rid
   | None -> ());
  let steps0 = Budget.steps clock in
  let account () =
    Metrics.incr m_decides;
    let steps = Budget.steps clock - steps0 in
    Metrics.add m_steps steps;
    Trace.set_int sp "steps" steps
  in
  match f () with
  | verdict ->
    account ();
    Trace.set_str sp "verdict" (verdict_name verdict);
    verdict
  | exception (Budget.Exhausted reason as e) ->
    account ();
    Metrics.incr m_timeouts;
    Trace.set_str sp "verdict" "timeout";
    Trace.set_str sp "reason" (Budget.reason_name reason);
    raise e

(* A witness must be partially closed and complete; [Rcdp.decide]
   checks partial closure at entry, so a database that fails it is
   simply not a witness.  Its steps and prunes go to the profile, but
   the decider note stays the one set before (rcqp's, not rcdp's). *)
let verify_witness ?clock ?profile ~schema ~master ~ccs q w =
  let kept =
    Option.bind profile (fun p -> Option.map (fun d -> (p, d)) (Profile.find_note p "decider"))
  in
  Fun.protect ~finally:(fun () -> Option.iter (fun (p, d) -> Profile.note p "decider" d) kept)
  @@ fun () ->
  match Rcdp.decide ?clock ?profile ~schema ~master ~ccs ~db:w q with
  | Rcdp.Complete -> true
  | Rcdp.Incomplete _ | (exception Rcdp.Not_partially_closed _) -> false

let decide_ind_core ~clock ~profile ~schema ~master ~inds q =
  Budget.check_now clock;
  let ucq = as_ucq_or_raise "RCQP" q in
  let ccs = List.map (Ind.to_cc schema) inds in
  (match profile with
   | Some p -> Profile.note p "decider" "rcqp_ind"
   | None -> ());
  let tableaux = satisfiable_tableaux schema ucq in
  if tableaux = [] then
    Nonempty
      {
        witness = Some (Database.empty schema);
        reason = "the query is unsatisfiable; any partially closed database is complete";
      }
  else begin
    let _, adom = build_adoms ~budget:default_budget ~schema ~master ~ccs ~ucq in
    (* one checker for both searches *)
    let checker = Checker.create ~master ccs in
    let live =
      List.filter_map
        (fun tab ->
          let search = Valuation_search.compile ~checker ~adom tab in
          if Valuation_search.iter ~budget:clock ?profile search ~mode:`Delta_only (fun _ -> true)
          then Some (tab, search)
          else None)
        tableaux
    in
    if live = [] then
      Nonempty
        {
          witness = Some (Database.empty schema);
          reason =
            "no valid valuation satisfies the INDs (Proposition 4.3 escape clause); the \
             empty database is complete";
        }
    else begin
      (* E3/E4: every infinite-domain output variable must occur in an
         IND-covered column. *)
      let unbounded =
        List.find_map
          (fun (tab, _) ->
            List.find_map
              (fun y ->
                let occs = occurrences tab y in
                let covered =
                  List.exists
                    (fun (rel, col) ->
                      List.exists (fun ind -> Ind.covers ind ~rel ~col) inds)
                    occs
                in
                if covered then None else Some y)
              (infinite_summary_vars tab))
          live
      in
      match unbounded with
      | Some y ->
        Empty
          {
            reason =
              Printf.sprintf
                "output variable %s ranges over an infinite domain and no IND covers any \
                 of its columns (E4 fails)"
                y;
          }
      | None ->
        let witness =
          match ind_witness ~clock ?profile ~budget:default_budget ~schema live with
          | Some w
            when verify_witness ~clock ?profile ~schema ~master ~ccs q w
            ->
            Some w
          | _ -> None
        in
        Nonempty { witness; reason = "every output variable is bounded (E3/E4 hold)" }
    end
  end

let decide_ind ?(clock = Budget.unlimited) ?profile ~schema ~master ~inds q =
  with_decide_obs ~name:"rcqp.decide_ind" ~clock (fun () ->
      decide_ind_core ~clock ~profile ~schema ~master ~inds q)

(* ------------------------------------------------------------------ *)
(* General monotone LC: Proposition 4.2 / Corollary 4.4.
   Candidate pool: single-template instantiations of the constraint
   tableaux over the active domain (Section 4.2's partial valuations —
   a multi-template partial valuation is equivalent to a set of
   single-template ones, since both D_V and the bound summary values
   decompose template-wise). *)

type candidate = {
  cand_rel : string;
  cand_tuple : Tuple.t;
  cand_summary : Value.t list; (* values this instantiation lends to u_j *)
}

exception Budget_exceeded of string
exception Pool_truncated

let cc_lhs_tableaux ~schema ccs =
  List.concat_map
    (fun cc ->
      match Lang.as_ucq cc.Containment.lhs with
      | None -> []
      | Some lhs -> List.filter_map (Tableau.of_cq schema) lhs)
    ccs

(* Column-level visibility: a column (relation, position) is visible
   when some constraint can observe its value — through a constant, a
   join (repeated variable), an (in)equality, or the constraint's
   summary.  Values at invisible columns are pure fillers, so the
   candidate pool pins them to a single canonical fresh value instead
   of sweeping the whole active domain. *)
let visible_columns cc_tableaux =
  let visible = Hashtbl.create 32 in
  List.iter
    (fun (tab : Tableau.t) ->
      let occurrences = Hashtbl.create 16 in
      List.iter
        (fun (a : Atom.t) ->
          List.iter
            (function
              | Term.Var x ->
                Hashtbl.replace occurrences x
                  (1 + Option.value ~default:0 (Hashtbl.find_opt occurrences x))
              | Term.Const _ -> ())
            a.Atom.args)
        tab.Tableau.patterns;
      let constrained x =
        Option.value ~default:0 (Hashtbl.find_opt occurrences x) > 1
        || List.exists
             (fun (s, t) -> Term.equal s (Term.Var x) || Term.equal t (Term.Var x))
             tab.Tableau.neqs
        || List.exists (Term.equal (Term.Var x)) tab.Tableau.summary
      in
      List.iter
        (fun (a : Atom.t) ->
          List.iteri
            (fun i t ->
              match t with
              | Term.Const _ -> Hashtbl.replace visible (a.Atom.rel, i) ()
              | Term.Var x -> if constrained x then Hashtbl.replace visible (a.Atom.rel, i) ())
            a.Atom.args)
        tab.Tableau.patterns)
    cc_tableaux;
  fun rel i -> Hashtbl.mem visible (rel, i)

(* [fold_tuples f db init] folds [f rel tuple] over every tuple of
   [db]. *)
let fold_tuples f db init =
  Database.fold (fun rel r acc -> Relation.fold (f rel) r acc) db init

(* RCQP's own consistency checks grow databases from the empty one, a
   tuple at a time, so each is a delta check on a consistent parent.
   The constraints are monotone: when the empty database violates one,
   every database does, and nothing is consistent. *)
type consistency = {
  chk : Checker.t;
  empty_ok : bool Lazy.t;
}

let consistency ~schema ~master ccs =
  let chk = Checker.create ~master ccs in
  let empty = Database.empty schema in
  { chk; empty_ok = lazy (Checker.check chk ~base:empty ~delta:empty = None) }

(* [base ∪ delta] is a consistent state plus [tuple] inserted into
   [rel]: is it still consistent? *)
let consistent_add cons ~base ~delta rel tuple =
  Lazy.force cons.empty_ok
  && Checker.check_add cons.chk ~base ~delta ~rel ~tuple = None

let candidate_pool ?(truncate = false) ?(clock = Budget.unlimited) ?profile
    ~cons ~budget ~schema ~adom ccs =
  Trace.with_span "rcqp.candidate_pool" @@ fun sp ->
  Trace.set_bool sp "truncating" truncate;
  let frame = Checker.frame cons.chk ~base:(Database.empty schema) in
  let pool = ref [] in
  let count = ref 0 in
  let ticks = ref 0 in
  let cc_tabs = cc_lhs_tableaux ~schema ccs in
  let is_visible = visible_columns cc_tabs in
  let canonical =
    match Adom.fresh adom with
    | f :: _ -> f
    | [] -> Value.Int max_int
  in
  (* the bump runs on every exit path (truncation, Budget_exceeded,
     Exhausted) so partial pools still show up in explain profiles *)
  Fun.protect
    ~finally:(fun () ->
      match profile with
      | Some p -> Profile.bump p "pool_steps" !ticks
      | None -> ())
  @@ fun () ->
  (try
     List.iter
       (fun (tab : Tableau.t) ->
         let doms = Tableau.var_domains tab in
         List.iter
           (fun (a : Atom.t) ->
             (* variables sitting only at invisible columns of this atom
                take the canonical filler value *)
             let var_visible = Hashtbl.create 8 in
             List.iteri
               (fun i t ->
                 match t with
                 | Term.Var x -> if is_visible a.Atom.rel i then Hashtbl.replace var_visible x ()
                 | Term.Const _ -> ())
               a.Atom.args;
             let vars = Atom.vars a in
             let cands =
               List.map
                 (fun x ->
                   let d = Option.value ~default:Domain.Infinite (List.assoc_opt x doms) in
                   if Hashtbl.mem var_visible x then (x, Adom.candidates adom d)
                   else
                     (* invisible: any single value serves as filler,
                        but it must still respect the column domain *)
                     match Domain.values d with
                     | Some (first :: _) -> (x, [ first ])
                     | Some [] | None -> (x, [ canonical ]))
                 vars
             in
             let expected = List.fold_left (fun n (_, cs) -> n * List.length cs) 1 cands in
             if expected > budget.max_pool * 64 then
               if truncate then raise Pool_truncated
               else
                 raise
                   (Budget_exceeded
                      (Printf.sprintf
                         "candidate generation for one template would enumerate %d raw \
                          instantiations"
                         expected));
             (* once the empty database is consistent, the candidates
                are drawn from the generator CCs and checked against the
                others; otherwise none is consistent, and the product is
                enumerated and rejected as before.  A candidate lives in
                registers (one slot per variable of [a]) and is checked
                as an interned row alone in the overlay; only a kept one
                becomes a tuple. *)
             let empty_ok = Lazy.force cons.empty_ok in
             let slot x =
               let rec go i = function
                 | [] -> invalid_arg ("candidate_pool: unbound variable " ^ x)
                 | y :: rest -> if String.equal x y then i else go (i + 1) rest
               in
               go 0 vars
             in
             let gen =
               if empty_ok then Checker.generator cons.chk ~slot a cands
               else Checker.product ~slot cands
             in
             let args =
               Array.of_list
                 (List.map
                    (function Term.Var x -> slot x | Term.Const c -> -Intern.id c - 1)
                    a.Atom.args)
             in
             (* the summary values this atom lends: its variables among
                the summary terms, in summary order *)
             let summary_slots =
               List.filter_map
                 (function
                   | Term.Var x when List.mem x vars -> Some (slot x)
                   | Term.Var _ | Term.Const _ -> None)
                 tab.Tableau.summary
             in
             let regs = Array.make (List.length vars) (-1) in
             let row = Array.make (Array.length args) 0 in
             let tuple () = Array.map Intern.value row in
             let conforms = Atom.constants_conform schema a in
             let watch = Checker.watch frame ~generated:true a.Atom.rel in
             let ov = Checker.overlay frame a.Atom.rel in
             let (_ : bool) =
               Checker.generate gen regs (fun () ->
                   incr ticks;
                   Budget.tick clock;
                   (* keep only candidates that are consistent on their
                      own; a violating singleton can never be part of a
                      consistent set *)
                   Array.iteri (fun i x -> row.(i) <- (if x < 0 then -x - 1 else regs.(x))) args;
                   (* a constant outside its column's finite domain:
                      no database of the schema holds this tuple, so
                      the candidate raises as adding it to one does *)
                   if not conforms then Database.check_tuple schema a.Atom.rel (tuple ());
                   if empty_ok then begin
                     Kernel.Overlay.push ov row;
                     let violated = Checker.check_row watch row in
                     Kernel.Overlay.pop ov;
                     if violated = None then begin
                       incr count;
                       if !count > budget.max_pool then
                         if truncate then raise Pool_truncated
                         else
                           raise
                             (Budget_exceeded
                                (Printf.sprintf "candidate pool exceeds %d instantiations"
                                   budget.max_pool));
                       pool :=
                         {
                           cand_rel = a.Atom.rel;
                           cand_tuple = tuple ();
                           cand_summary =
                             List.map (fun s -> Intern.value regs.(s)) summary_slots;
                         }
                         :: !pool
                     end
                   end;
                   false)
             in
             ())
           tab.Tableau.patterns)
       cc_tabs
   with Pool_truncated -> ());
  let cmp a b =
    let c = String.compare a.cand_rel b.cand_rel in
    if c <> 0 then c
    else
      let c = Tuple.compare a.cand_tuple b.cand_tuple in
      if c <> 0 then c else List.compare Value.compare a.cand_summary b.cand_summary
  in
  let result = List.sort_uniq cmp !pool in
  Metrics.add m_pool_candidates (List.length result);
  Trace.set_int sp "candidates" (List.length result);
  result

module VS = Set.Make (Value)

type e2_witness = {
  w_delta : Database.t;        (* μ(T) of the live valuation *)
  w_unbounded : Value.t list;  (* output values outside the bounding set *)
}

(* Does the E2/E6 condition hold for the valuation set represented by
   [dv] (its instantiation) and [bvals] (the summary values it binds)?
   For every query disjunct with infinite-domain output variables
   ([bounded]: its compiled search and those variables): no valid
   valuation [μ] that stays live — [(D_V ∪ μ(T), Dm) ⊨ V] — may leave
   such a variable outside [bvals].  Returns the first offending
   live valuation, or [None] when the condition holds. *)
let e2_condition ~clock ~profile ~reserved ~bounded ~dv ~bvals =
  (* Witness preference: a live valuation whose stray output values
     all come from the reserved query-tier fresh values can never be
     bounded by any valuation set (the candidate pool cannot even
     spell those values) — only blocked — so reporting it keeps the
     DFS branch factor down to the genuinely blocking candidates.  We
     keep scanning until such a witness appears, remembering the first
     arbitrary one as a fallback. *)
  let fresh = reserved in
  let witness = ref None in
  let ok =
    List.for_all
      (fun (search, inf_vars) ->
        let found_any = ref false in
        let (_ : bool) =
          Valuation_search.iter ~budget:clock ?profile search
            ~mode:(`Against_base dv)
            (fun leaf ->
              let unbounded =
                List.filter_map
                  (fun y ->
                    match Valuation_search.value leaf y with
                    | Some c -> if VS.mem c bvals then None else Some c
                    | None -> None)
                  inf_vars
              in
              if unbounded = [] then false
              else begin
                found_any := true;
                let all_fresh = List.for_all (fun c -> VS.mem c fresh) unbounded in
                if all_fresh || !witness = None then
                  witness :=
                    Some
                      {
                        w_delta = Valuation_search.extension leaf;
                        w_unbounded = unbounded;
                      };
                all_fresh (* stop only on a preferred witness *)
              end)
        in
        not !found_any)
      bounded
  in
  if ok then None else !witness

(* Can candidate [c] take part in a constraint violation together with
   some tuple of [delta]?  Over-approximated by unifiability of two
   distinct templates of one constraint tableau against [c]'s tuple
   and a [delta] tuple. *)
let may_block ~schema ~cc_tableaux c delta =
  let unifies (a : Atom.t) tuple bound =
    if Atom.arity a <> Tuple.arity tuple then None
    else
      let rec go bound i = function
        | [] -> Some bound
        | Term.Const k :: rest ->
          if Value.equal k (Tuple.get tuple i) then go bound (i + 1) rest else None
        | Term.Var x :: rest ->
          let v = Tuple.get tuple i in
          (match Valuation.find x bound with
           | Some v' -> if Value.equal v v' then go bound (i + 1) rest else None
           | None -> go (Valuation.add x v bound) (i + 1) rest)
      in
      go bound 0 a.Atom.args
  in
  ignore schema;
  List.exists
    (fun (tab : Tableau.t) ->
      let templates = tab.Tableau.patterns in
      List.exists
        (fun (alpha : Atom.t) ->
          String.equal alpha.Atom.rel c.cand_rel
          &&
          match unifies alpha c.cand_tuple Valuation.empty with
          | None -> false
          | Some bound ->
            List.exists
              (fun (beta : Atom.t) ->
                (not (beta == alpha))
                &&
                match Database.relation delta beta.Atom.rel with
                | exception Not_found -> false
                | rel ->
                  Relation.exists
                    (fun t -> Option.is_some (unifies beta t bound))
                    rel)
              templates)
        templates)
    cc_tableaux

(* Resolution-directed DFS over valuation sets (Proposition 4.2's sets
   V): starting from ∅, test the E2 condition; when it fails with a
   live unbounded valuation μ*, branch only on candidates that can
   {e resolve} μ* — bound one of its stray output values, or
   participate in a violation together with μ*'s extension.  Any
   successful superset must contain a resolving candidate (a violation
   blocking μ* needs at least one candidate tuple joined with μ*'s
   tuples, and bounding needs a summary hit), so directed branching is
   exact; memoisation collapses permutations of the same set. *)
let e2_search ~clock ?profile ~cons ~budget ~schema ~ccs ~reserved ~searches pool =
  Trace.with_span "rcqp.e2_search" @@ fun sp ->
  let bounded =
    List.filter_map
      (fun (tab, search) ->
        match infinite_summary_vars tab with
        | [] -> None
        | inf_vars -> Some (search, inf_vars))
      searches
  in
  let pool = Array.of_list pool in
  let n = Array.length pool in
  Trace.set_int sp "pool" n;
  let cc_tableaux =
    List.concat_map
      (fun cc ->
        match Lang.as_ucq cc.Containment.lhs with
        | None -> []
        | Some lhs -> List.filter_map (Tableau.of_cq schema) lhs)
      ccs
  in
  let nodes = ref 0 in
  let visited = Hashtbl.create 1024 in
  (* DFS invariant: [dfs] only recurses into consistent sets grown
     from the empty database, so every [dv'] grows a consistent parent
     by one tuple *)
  let empty_db = Database.empty schema in
  let found = ref None in
  let rec dfs members dv bvals =
    if !found <> None then ()
    else begin
      let key = String.concat "," (List.map string_of_int (List.sort compare members)) in
      if not (Hashtbl.mem visited key) then begin
        Hashtbl.add visited key ();
        incr nodes;
        Budget.check_now clock;
        if !nodes > budget.max_nodes then
          raise (Budget_exceeded "E2 search exceeded its node budget");
        match
          e2_condition ~clock ~profile ~reserved ~bounded ~dv ~bvals
        with
        | None -> found := Some dv
        | Some w ->
          for i = 0 to n - 1 do
            if !found = None && not (List.mem i members) then begin
              let c = pool.(i) in
              let resolves =
                List.exists (fun v -> List.exists (Value.equal v) c.cand_summary)
                  w.w_unbounded
                || may_block ~schema ~cc_tableaux c w.w_delta
              in
              if resolves then begin
                let dv' = Database.add_tuple dv c.cand_rel c.cand_tuple in
                if
                  consistent_add cons ~base:empty_db ~delta:dv' c.cand_rel
                    c.cand_tuple
                then
                  dfs (i :: members) dv'
                    (List.fold_left (fun s v -> VS.add v s) bvals c.cand_summary)
              end
            end
          done
      end
    end
  in
  (* the DFS can exit via Budget_exceeded / Exhausted: account for the
     expanded nodes on every path *)
  Fun.protect
    ~finally:(fun () ->
      Metrics.add m_e2_nodes !nodes;
      (match profile with
       | Some p -> Profile.bump p "e2_nodes" !nodes
       | None -> ());
      Trace.set_int sp "nodes" !nodes)
  @@ fun () ->
  dfs [] (Database.empty schema) VS.empty;
  Trace.set_bool sp "found" (!found <> None);
  !found

(* E1/E5 witness: a maximal collection of tableau instantiations over
   the active domain.  One pass suffices: rejections are final because
   violations persist under growth.  The witness so far is consistent,
   so an instantiation is checked by adding its tuples one at a time,
   each a delta check against the witness: for monotone constraints
   that accepts exactly the instantiations a full check of the union
   would.  The witness lives as interned rows in one checker frame
   over the empty database — an instantiation's new rows are pushed,
   checked, and popped again if one is rejected — and becomes a
   database once, at the end. *)
let greedy_maximal_witness ?(clock = Budget.unlimited) ?profile ~cons ~budget
    ~schema ~adom tableaux =
  Trace.with_span "rcqp.witness_greedy" @@ fun _sp ->
  let empty_db = Database.empty schema in
  let frame = Checker.frame cons.chk ~base:empty_db in
  (* the witness's tuples: a tuple it holds is checked already *)
  let held = Hashtbl.create 64 in
  let count = ref 0 in
  let ticks = ref 0 in
  let exceeded = ref false in
  Fun.protect
    ~finally:(fun () ->
      match profile with
      | Some p -> Profile.bump p "witness_steps" !ticks
      | None -> ())
  @@ fun () ->
  List.iter
    (fun (tab : Tableau.t) ->
      if not !exceeded then begin
        let doms = Tableau.var_domains tab in
        let cands = List.map (fun (x, d) -> (x, Adom.candidates adom d)) doms in
        let (_ : bool) =
          Valuation.enumerate_iter cands (fun mu ->
              incr ticks;
              Budget.tick clock;
              incr count;
              if !count > budget.max_valuations then begin
                exceeded := true;
                true
              end
              else begin
                if Tableau.neqs_ok tab mu then begin
                  let pushed = ref [] in
                  let add rel tuple ok =
                    ok
                    && (Hashtbl.mem held (rel, tuple)
                       ||
                       let row = Intern.row tuple in
                       Kernel.Overlay.push (Checker.overlay frame rel) row;
                       pushed := (rel, tuple) :: !pushed;
                       Checker.check_row (Checker.watch frame ~generated:false rel) row = None)
                  in
                  if
                    Lazy.force cons.empty_ok
                    && fold_tuples add (Tableau.instantiate tab mu) true
                  then List.iter (fun k -> Hashtbl.replace held k ()) !pushed
                  else
                    List.iter
                      (fun (rel, _) -> Kernel.Overlay.pop (Checker.overlay frame rel))
                      !pushed
                end;
                false
              end)
        in
        ()
      end)
    tableaux;
  if !exceeded then None
  else Some (Database.add_tuples empty_db (Hashtbl.fold (fun k () acc -> k :: acc) held []))

(* Exact Empty check by fresh-value pumping: if some satisfiable
   disjunct admits a valuation μ* that (i) gives every infinite-domain
   variable — including an output variable — a brand-new value, and
   (ii) produces an extension none of whose tuples unifies with any
   atom of any constraint query, then μ*(T) is invisible to V: for
   {e every} partially closed D, D ∪ μ*(T) is partially closed and
   contains a strictly new answer.  Hence no complete database exists.
   Unification against a tuple holding fresh values fails exactly when
   the atom pins a constant (or a repeated variable) against them, so
   the check is sound and purely syntactic. *)
let fresh_pumpable ~schema ~ccs tableaux =
  let cc_atoms =
    List.concat_map
      (fun cc ->
        match Lang.as_ucq cc.Containment.lhs with
        | None -> []
        | Some lhs ->
          List.concat_map
            (fun cq ->
              match Cq.normalize cq with
              | Some n -> n.Cq.n_atoms
              | None -> [])
            lhs)
      ccs
  in
  let unifies (a : Atom.t) tuple =
    if Atom.arity a <> Tuple.arity tuple then false
    else
      let rec go bound i = function
        | [] -> true
        | Term.Const k :: rest ->
          Value.equal k (Tuple.get tuple i) && go bound (i + 1) rest
        | Term.Var x :: rest ->
          let v = Tuple.get tuple i in
          (match Valuation.find x bound with
           | Some v' -> Value.equal v v' && go bound (i + 1) rest
           | None -> go (Valuation.add x v bound) (i + 1) rest)
      in
      go Valuation.empty 0 a.Atom.args
  in
  List.find_map
    (fun (tab : Tableau.t) ->
      match infinite_summary_vars tab with
      | [] -> None
      | y :: _ ->
        let doms = Tableau.var_domains tab in
        (* candidates: finite-domain variables range over their domain,
           infinite ones get distinct sentinel fresh values. *)
        let fresh_counter = ref 0 in
        let assignment_lists =
          List.map
            (fun (x, d) ->
              match Domain.values d with
              | Some vs -> (x, vs)
              | None ->
                incr fresh_counter;
                (x, [ Value.Str (Printf.sprintf "\xE2\x8A\xA5fresh%d" !fresh_counter) ]))
            doms
        in
        let pumped = ref false in
        let (_ : bool) =
          Valuation.enumerate_iter assignment_lists (fun mu ->
              if Tableau.neqs_ok tab mu then begin
                let delta = Tableau.instantiate tab mu in
                let invisible =
                  Database.fold
                    (fun rel tuples acc ->
                      acc
                      && Relation.for_all
                           (fun t ->
                             not
                               (List.exists
                                  (fun (a : Atom.t) ->
                                    String.equal a.Atom.rel rel && unifies a t)
                                  cc_atoms))
                           tuples)
                    delta true
                in
                if invisible then begin
                  pumped := true;
                  true
                end
                else false
              end
              else false)
        in
        ignore schema;
        if !pumped then Some (tab, y) else None)
    tableaux

(* Exact Empty check: a satisfiable disjunct whose output has an
   infinite-domain variable and whose relations no constraint
   mentions.  Extensions of those relations can never violate V, so a
   fresh output value always yields a strictly larger answer. *)
let unconstrained_disjunct ~ccs tableaux =
  let cc_rels =
    List.concat_map (fun cc -> Lang.relations cc.Containment.lhs) ccs
    |> List.sort_uniq String.compare
  in
  List.find_map
    (fun (tab : Tableau.t) ->
      match infinite_summary_vars tab with
      | [] -> None
      | y :: _ ->
        let rels = List.map (fun (a : Atom.t) -> a.Atom.rel) tab.Tableau.patterns in
        if List.exists (fun r -> List.mem r cc_rels) rels then None else Some (tab, y))
    tableaux

(* Heuristic witness candidates, cheapest-and-likeliest first: the
   empty database, the greedy maximal collection of constant-valued
   tableau instantiations (the right witness when the answer is "copy
   the master data in"), a few valid tableau instantiations, a few
   constraint-template instantiations, and a few pairwise unions.
   Each candidate costs a full RCDP run, so the list is kept short. *)
let heuristic_witness ~clock ?profile ~cons ~budget ~schema ~master ~ccs ~adom
    ~searches q =
  Trace.with_span "rcqp.witness_heuristic" @@ fun _sp ->
  let max_verifications = 24 in
  let constants_only =
    (* the greedy maximal witness restricted to known constants *)
    let small =
      { budget with max_valuations = min budget.max_valuations 50_000 }
    in
    greedy_maximal_witness ~clock ?profile ~cons ~budget:small ~schema
      ~adom:
        (Adom.build ~schemas:[ schema ] ~master:(Database.empty (Database.schema master))
           ~cc_constants:(Adom.constants adom) ~query_constants:[] ~fresh_count:0 ())
      (List.map fst searches)
  in
  let singles = ref [] in
  let count = ref 0 in
  List.iter
    (fun (_, search) ->
      let (_ : bool) =
        Valuation_search.iter ~budget:clock ?profile search ~mode:`Delta_only (fun leaf ->
            incr count;
            singles := Valuation_search.extension leaf :: !singles;
            !count > 6)
      in
      ())
    searches;
  let pool =
    candidate_pool ~truncate:true ~clock ?profile ~cons ~budget ~schema ~adom
      ccs
  in
  let template_singles =
    List.filteri (fun i _ -> i < 6) pool
    |> List.map (fun c -> Database.add_tuple (Database.empty schema) c.cand_rel c.cand_tuple)
  in
  let singles = List.rev !singles in
  let pairs =
    List.concat_map
      (fun a -> List.map (Database.union a) template_singles)
      (List.filteri (fun i _ -> i < 3) singles)
  in
  let candidates =
    (Database.empty schema :: Option.to_list constants_only)
    @ singles @ template_singles @ pairs
  in
  let candidates = List.filteri (fun i _ -> i < max_verifications) candidates in
  List.find_opt
    (verify_witness ~clock ?profile ~schema ~master ~ccs q)
    candidates

let decide_core ~clock ~profile ~budget ~schema ~master ~ccs q =
  Budget.check_now clock;
  require_monotone_ccs ccs;
  (match profile with
   | Some p -> Profile.note p "decider" "rcqp"
   | None -> ());
  (* one checker for the pool, the valuation searches and the greedy
     and E2 consistency checks *)
  let cons = consistency ~schema ~master ccs in
  let ucq = as_ucq_or_raise "RCQP" q in
  let tableaux = satisfiable_tableaux schema ucq in
  if tableaux = [] then
    Nonempty
      {
        witness = Some (Database.empty schema);
        reason = "the query is unsatisfiable; any partially closed database is complete";
      }
  else begin
    let adom_pool, adom = build_adoms ~budget ~schema ~master ~ccs ~ucq in
    if List.for_all (fun tab -> infinite_summary_vars tab = []) tableaux then begin
      (* E1 / E5 *)
      let witness =
        match
          greedy_maximal_witness ~clock ?profile ~cons ~budget ~schema ~adom
            tableaux
        with
        | Some w
          when verify_witness ~clock ?profile ~schema ~master ~ccs q w ->
          Some w
        | _ -> None
      in
      Nonempty
        { witness; reason = "all output variables range over finite domains (E1/E5)" }
    end
    else
      match
        match unconstrained_disjunct ~ccs tableaux with
        | Some _ as r -> r
        | None -> fresh_pumpable ~schema ~ccs tableaux
      with
      | Some (_, y) ->
        Empty
          {
            reason =
              Printf.sprintf
                "output variable %s is infinite-domain and a fresh-valued extension is \
                 invisible to every constraint: a fresh value always extends the answer"
                y;
          }
      | None ->
        (* one compiled search per query tableau, for every E2 node and
           the heuristic witness *)
        let searches =
          List.map (fun tab -> (tab, Valuation_search.compile ~checker:cons.chk ~adom tab)) tableaux
        in
        (try
           let pool =
             candidate_pool ~clock ?profile ~cons ~budget ~schema
               ~adom:adom_pool ccs
           in
           let reserved =
             let pool_fresh = VS.of_list (Adom.fresh adom_pool) in
             VS.of_list
               (List.filter (fun f -> not (VS.mem f pool_fresh)) (Adom.fresh adom))
           in
           match
             e2_search ~clock ?profile ~cons ~budget ~schema ~ccs ~reserved ~searches pool
           with
           | Some dv ->
             let witness =
               (* Proposition 4.2(b): D_V plus the constant-only tuple
                  templates of the query tableaux. *)
               let w =
                 List.fold_left
                   (fun w (tab : Tableau.t) ->
                     List.fold_left
                       (fun w (a : Atom.t) ->
                         if Atom.vars a = [] then
                           match Valuation.tuple_of_terms Valuation.empty a.Atom.args with
                           | Some t -> Database.add_tuple w a.Atom.rel t
                           | None -> w
                         else w)
                       w tab.Tableau.patterns)
                   dv tableaux
               in
               if verify_witness ~clock ?profile ~schema ~master ~ccs q w
               then Some w
               else None
             in
             Nonempty { witness; reason = "a bounding valuation set exists (E2/E6)" }
           | None ->
             Empty
               {
                 reason =
                   "exhausted all maximal consistent valuation sets: no set bounds the \
                    output (E2/E6 fail)";
               }
         with Budget_exceeded why ->
           (match
              heuristic_witness ~clock ?profile ~cons ~budget ~schema ~master
                ~ccs ~adom ~searches q
            with
            | Some w ->
              Nonempty
                { witness = Some w; reason = "verified witness found by heuristic search" }
            | None -> Unknown { reason = why }))
  end

let decide ?(clock = Budget.unlimited) ?(budget = default_budget) ?profile ~schema
    ~master ~ccs q =
  with_decide_obs ~name:"rcqp.decide" ~clock (fun () ->
      decide_core ~clock ~profile ~budget ~schema ~master ~ccs q)

(* ------------------------------------------------------------------ *)
(* Bounded witness search for the undecidable rows of Table II. *)

type semi_verdict =
  | Plausibly_nonempty of {
      witness : Database.t;
      checked_up_to : int;
    }
  | No_witness_found of { candidates_tried : int }

let semi_decide ?(clock = Budget.unlimited) ?(max_tuples = 2) ?(max_candidates = 500) ~schema ~master ~ccs q =
  Budget.check_now clock;
  let adom =
    Adom.build ~schemas:[ schema ] ~master ~cc_constants:(cc_constants ccs)
      ~query_constants:(Lang.constants q) ~fresh_count:3 ()
  in
  let values = Adom.all adom in
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
  let tried = ref 0 in
  let found = ref None in
  let check db =
    Budget.tick clock;
    incr tried;
    if
      !found = None && !tried <= max_candidates
      && Containment.holds_all ~db ~master ccs
    then begin
      match Rcdp.semi_decide ~max_tuples ~schema ~master ~ccs ~db q with
      | Rcdp.No_counterexample _ -> found := Some db
      | Rcdp.Refuted _ -> ()
    end
  in
  check (Database.empty schema);
  let candidates = Array.of_list candidate_tuples in
  let rec grow start db count =
    if !found = None && !tried <= max_candidates then begin
      if count > 0 then check db;
      if count < max_tuples + 1 then
        for i = start to Array.length candidates - 1 do
          if !found = None && !tried <= max_candidates then begin
            let rel, tuple = candidates.(i) in
            if not (Relation.mem tuple (Database.relation db rel)) then
              grow (i + 1) (Database.add_tuple db rel tuple) (count + 1)
          end
        done
    end
  in
  grow 0 (Database.empty schema) 0;
  match !found with
  | Some w -> Plausibly_nonempty { witness = w; checked_up_to = max_tuples }
  | None -> No_witness_found { candidates_tried = !tried }

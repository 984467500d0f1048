open Ric_relational
open Ric_query

(* The containment-constraint checker of the valuation search.

   Per [create]:
   - the RHS projection of each CC is evaluated against the master
     once and frozen both as a relation (for the full-evaluation path)
     and as a hash set of interned rows;
   - every LHS disjunct with a UCQ form is compiled into a
     slot-addressed kernel plan over its whole body, plus one probe per
     atom occurrence (less those equal to another up to renaming): the
     atom's pinned arguments and a plan for the rest of the body;
   - [by_rel] lists, per relation, the CCs whose LHS reads it — each
     once, in declaration order — together with their probes pinned on
     that relation.

   Per check, plans join over [base]'s persistent indexes plus [delta]
   as a small interned overlay, stopping at the first answer escaping
   the cached RHS.  FO/FP or unsafe LHSs keep the full-evaluation path
   so they raise (or recurse) exactly as [Containment.holds_all]. *)

type plan = {
  plan : Kernel.plan;
  head : int array; (* the disjunct's head, encoded against [plan] *)
}

(* one atom occurrence of a disjunct, pinned on the inserted tuple *)
type probe = {
  pinned : int array; (* the atom's arguments, encoded against [rest] *)
  rest : plan; (* the other atoms, with the pinned atom's variables bound *)
}

type body =
  | Compiled of plan list (* one whole-body plan per disjunct *)
  | Eval of Lang.t

type entry = {
  violated : string option; (* [Some cc_name], allocated once *)
  rhs_rel : Relation.t;
  rhs_ids : Kernel.Rowset.t;
  body : body;
}

type watch = {
  w_entry : entry;
  w_probes : probe list; (* this entry's probes pinned on the relation *)
}

type t = {
  entries : entry list;
  by_rel : (string, watch list) Hashtbl.t;
  store : Kernel.Store.t;
}

(* Process-wide work counters, one bump per check (not per entry) so
   the step loop pays a single atomic add. *)
let m_delta_checks =
  Ric_obs.Metrics.counter
    ~help:"constraint checks answered by a delta check"
    "ric_incremental_delta_checks_total"

let m_full_checks =
  Ric_obs.Metrics.counter
    ~help:"constraint checks answered by a full check"
    "ric_incremental_full_checks_total"

exception Not_compilable

(* Normalized disjuncts of a UCQ-form LHS, or [Not_compilable]. *)
let disjuncts lhs =
  match Lang.as_ucq lhs with
  | None -> raise Not_compilable
  | Some ucq ->
    List.filter_map
      (fun cq ->
        match Cq.normalize cq with
        | None -> None (* statically unsatisfiable: contributes nothing *)
        | Some n ->
          (* unsafe disjuncts must keep raising from the evaluator *)
          let avars = List.concat_map Atom.vars n.Cq.n_atoms in
          let covered = function
            | Term.Const _ -> true
            | Term.Var x -> List.mem x avars
          in
          if
            not
              (List.for_all covered n.Cq.n_head
               && List.for_all
                    (fun (s, u) -> covered s && covered u)
                    n.Cq.n_neqs)
          then raise Not_compilable;
          Some n)
      ucq

let compile ?extra_vars atoms (n : Cq.norm) =
  let plan = Kernel.compile ?extra_vars atoms n.Cq.n_neqs in
  { plan; head = Kernel.encode_terms plan n.Cq.n_head }

(* A probe up to renaming of variables: numbered by first occurrence
   in the pinned atom then the rest, inequalities unordered, and the
   head only when [with_head] — against an empty RHS any answer is a
   violation.  Two probes with one key find the same violations, so
   only the first is kept: a self-join FD's two atoms give one probe,
   not two. *)
let probe_key ~with_head (pinned : Atom.t) others (n : Cq.norm) =
  let slots = Hashtbl.create 8 in
  let canon = function
    | Term.Const c -> Either.Left c
    | Term.Var x ->
      Either.Right
        (match Hashtbl.find_opt slots x with
         | Some i -> i
         | None ->
           let i = Hashtbl.length slots in
           Hashtbl.add slots x i;
           i)
  in
  let atom (a : Atom.t) = (a.Atom.rel, List.map canon a.Atom.args) in
  let atoms = List.map atom (pinned :: others) in
  let neqs =
    List.map
      (fun (s, u) ->
        let s = canon s and u = canon u in
        if compare s u <= 0 then (s, u) else (u, s))
      n.Cq.n_neqs
  in
  let head = if with_head then List.map canon n.Cq.n_head else [] in
  (atoms, List.sort compare neqs, head)

(* [(rel, probe)] for every atom occurrence of every disjunct, less
   renamings of an earlier one *)
let probes_of ~with_head ns =
  let seen = ref [] in
  List.concat_map
    (fun (n : Cq.norm) ->
      List.concat
        (List.mapi
           (fun i (a : Atom.t) ->
             let others = List.filteri (fun j _ -> j <> i) n.Cq.n_atoms in
             let key = probe_key ~with_head a others n in
             if List.mem key !seen then []
             else begin
               seen := key :: !seen;
               let rest = compile ~extra_vars:(Atom.vars a) others n in
               let pinned = Kernel.encode_terms rest.plan a.Atom.args in
               [ (a.Atom.rel, { pinned; rest }) ]
             end)
           n.Cq.n_atoms))
    ns

let create ~master ccs =
  let by_rel = Hashtbl.create 16 in
  let entries =
    List.map
      (fun (cc : Containment.t) ->
        let rhs_rel = Projection.eval master cc.Containment.rhs in
        let body, probes =
          match disjuncts cc.Containment.lhs with
          | ns ->
            ( Compiled (List.map (fun n -> compile n.Cq.n_atoms n) ns),
              probes_of ~with_head:(not (Relation.is_empty rhs_rel)) ns )
          | exception Not_compilable -> (Eval cc.Containment.lhs, [])
        in
        let e =
          {
            violated = Some cc.Containment.cc_name;
            rhs_rel;
            rhs_ids = Kernel.Rowset.of_relation rhs_rel;
            body;
          }
        in
        (* [Lang.relations] lists each relation once *)
        List.iter
          (fun rel ->
            let watches = Option.value ~default:[] (Hashtbl.find_opt by_rel rel) in
            let w_probes =
              List.filter_map
                (fun (r, p) -> if String.equal r rel then Some p else None)
                probes
            in
            Hashtbl.replace by_rel rel ({ w_entry = e; w_probes } :: watches))
          (Lang.relations cc.Containment.lhs);
        e)
      ccs
  in
  (* watch lists were built by prepending: restore declaration order *)
  Hashtbl.filter_map_inplace (fun _ ws -> Some (List.rev ws)) by_rel;
  { entries; by_rel; store = Kernel.Store.create () }

(* One check's view of [base ∪ delta]: base relations for the index
   store, [delta]'s interned rows per relation (computed on first use
   and shared by every plan of the check), and the materialised union
   for the full-evaluation path only. *)
type view = {
  lookup : string -> Relation.t;
  extra : string -> int array list;
  db : Database.t Lazy.t;
}

let view ~base ~delta =
  let cache = ref [] in
  let extra rel =
    let rec find = function
      | (r, rows) :: rest -> if String.equal r rel then rows else find rest
      | [] ->
        let rows =
          match Database.relation delta rel with
          | r -> Relation.fold (fun tu acc -> Intern.row tu :: acc) r []
          | exception Not_found -> []
        in
        cache := (rel, rows) :: !cache;
        rows
    in
    find !cache
  in
  let lookup rel =
    try Database.relation base rel with Not_found -> Relation.empty
  in
  let db =
    lazy
      (Database.fold
         (fun rel r acc ->
           Relation.fold (fun tu acc -> Database.add_tuple acc rel tu) r acc)
         delta base)
  in
  { lookup; extra; db }

(* Does some answer of [p] (run from [init]) escape the cached RHS? *)
let escapes t v e ?init p =
  Kernel.run t.store ~lookup:v.lookup ~extra:v.extra ?init p.plan (fun regs ->
      match Kernel.term_ids p.head regs with
      | Some ids -> not (Kernel.Rowset.mem e.rhs_ids ids)
      | None -> false)

let entry_holds t v e =
  match e.body with
  | Compiled plans -> not (List.exists (escapes t v e) plans)
  | Eval lhs -> Relation.subset (Lang.eval (Lazy.force v.db) lhs) e.rhs_rel

(* The first violated CC among [items], in order; [counter] is bumped
   once by the number of CCs checked. *)
let first_violated counter holds entry items =
  let rec go n = function
    | [] ->
      Ric_obs.Metrics.add counter n;
      None
    | x :: rest ->
      if holds x then go (n + 1) rest
      else begin
        Ric_obs.Metrics.add counter (n + 1);
        (entry x).violated
      end
  in
  go 0 items

let check t ~base ~delta =
  let v = view ~base ~delta in
  first_violated m_full_checks (entry_holds t v) Fun.id t.entries

let check_add t ~base ~delta ~rel ~tuple =
  match Hashtbl.find_opt t.by_rel rel with
  | None -> None (* no CC reads [rel] *)
  | Some watches ->
    let v = view ~base ~delta in
    let row = Intern.row tuple in
    let holds w =
      match w.w_entry.body with
      | Eval _ -> entry_holds t v w.w_entry
      | Compiled _ ->
        not
          (List.exists
             (fun p ->
               match Kernel.unify_encoded p.pinned row with
               | None -> false (* the tuple does not match this atom *)
               | Some init -> escapes t v w.w_entry ~init p.rest)
             w.w_probes)
    in
    first_violated m_delta_checks holds (fun w -> w.w_entry) watches

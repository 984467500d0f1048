open Ric_relational
open Ric_query

(* The containment-constraint checker of the valuation search and of
   the service's write path.

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
   so they raise (or recurse) exactly as [Containment.holds_all].
   [mem_answer] runs a query's disjuncts the same way, with the head
   bound to the asked tuple instead of a pinned atom. *)

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
  ord : int; (* declaration position *)
  violated : string option; (* [Some cc_name], allocated once *)
  rhs_rel : Relation.t;
  rhs_ids : Kernel.Rowset.t;
  body : body;
}

(* A generator CC: its normalised LHS is one atom with no inequality,
   an IND whose constants and repeated variables select.  A tuple of
   [g_atom]'s relation violates it exactly when it matches [g_atom]
   and its [g_head] escapes the RHS — a property of the tuple alone,
   so the search draws candidates from the RHS rather than testing
   them against it. *)
type generator = {
  g_entry : entry;
  g_atom : Atom.t;
  g_head : Term.t list;
  g_rix : Rix.t option Atomic.t; (* the RHS, column-indexed on first use *)
}

(* One candidate list, as an array, with its value id -> positions
   map (built on first draw): the search hands every variable of one
   domain the same list, so a checker keeps one per list. *)
type cands = {
  values : Value.t array;
  positions : (int, int) Hashtbl.t option Atomic.t;
}

type t = {
  entries : entry list;
  by_rel : (string, (entry * probe list) list) Hashtbl.t;
  by_rel_rest : (string, (entry * probe list) list) Hashtbl.t;
      (* [by_rel] less the generators: what a generated tuple needs *)
  generators : (string, generator list) Hashtbl.t; (* in declaration order *)
  lists : (Value.t list * cands) list Atomic.t; (* keyed by physical identity *)
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
  let by_rel_rest = Hashtbl.create 16 in
  let generators = Hashtbl.create 16 in
  (* every table is built by prepending: restore declaration order *)
  let push tbl k x =
    Hashtbl.replace tbl k (x :: Option.value ~default:[] (Hashtbl.find_opt tbl k))
  in
  let entries =
    List.mapi
      (fun ord (cc : Containment.t) ->
        let rhs_rel = Projection.eval master cc.Containment.rhs in
        let ns, body, probes =
          match disjuncts cc.Containment.lhs with
          | ns ->
            ( ns,
              Compiled (List.map (fun n -> compile n.Cq.n_atoms n) ns),
              probes_of ~with_head:(not (Relation.is_empty rhs_rel)) ns )
          | exception Not_compilable -> ([], Eval cc.Containment.lhs, [])
        in
        let e =
          {
            ord;
            violated = Some cc.Containment.cc_name;
            rhs_rel;
            rhs_ids = Kernel.Rowset.of_relation rhs_rel;
            body;
          }
        in
        let generator =
          match ns with
          | [ { Cq.n_atoms = [ a ]; n_neqs = []; n_head } ] ->
            push generators a.Atom.rel
              { g_entry = e; g_atom = a; g_head = n_head; g_rix = Atomic.make None };
            true
          | _ -> false
        in
        (* [Lang.relations] lists each relation once *)
        List.iter
          (fun rel ->
            let ps =
              List.filter_map
                (fun (r, p) -> if String.equal r rel then Some p else None)
                probes
            in
            push by_rel rel (e, ps);
            if not generator then push by_rel_rest rel (e, ps))
          (Lang.relations cc.Containment.lhs);
        e)
      ccs
  in
  List.iter
    (fun tbl -> Hashtbl.filter_map_inplace (fun _ ws -> Some (List.rev ws)) tbl)
    [ by_rel; by_rel_rest ];
  Hashtbl.filter_map_inplace (fun _ gs -> Some (List.rev gs)) generators;
  {
    entries;
    by_rel;
    by_rel_rest;
    generators;
    lists = Atomic.make [];
    store = Kernel.Store.create ();
  }

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

(* Counters are bumped once per check, by the number of CCs checked. *)
let check t ~base ~delta =
  let v = view ~base ~delta in
  let rec go n = function
    | [] ->
      Ric_obs.Metrics.add m_full_checks n;
      None
    | e :: rest ->
      if entry_holds t v e then go (n + 1) rest
      else begin
        Ric_obs.Metrics.add m_full_checks (n + 1);
        e.violated
      end
  in
  go 0 t.entries

(* Does some LHS answer of [e] through one of [probes], pinned on the
   inserted interned [row], escape the cached RHS? *)
let rec pinned_escapes t v e row = function
  | [] -> false
  | p :: probes -> (
    (match Kernel.unify_encoded p.pinned row with
     | None -> false (* the tuple does not match this atom *)
     | Some init -> escapes t v e ~init p.rest)
    || pinned_escapes t v e row probes)

(* The interned added rows of each relation some CC of [watching]
   reads, with its watch list (found by identity: one list per
   relation). *)
let rec groups watching acc = function
  | [] -> acc
  | (rel, tuple) :: added -> (
    match Hashtbl.find_opt watching rel with
    | None -> groups watching acc added
    | Some watches -> (
      let row = Intern.row tuple in
      match List.assq_opt watches acc with
      | Some rows ->
        rows := row :: !rows;
        groups watching acc added
      | None -> groups watching ((watches, ref [ row ]) :: acc) added))

(* One delta check's progress: the CCs checked so far, and those
   without a UCQ form already evaluated (and found to hold). *)
type progress = {
  mutable checked : int;
  mutable evaluated : entry list;
}

(* The first CC of [watches] violated through the probes pinned on
   [rows], in declaration order, or [best] if none comes before it. *)
let rec scan t v pr best rows = function
  | [] -> best
  | (e, probes) :: watches -> (
    match best with
    | Some b when e.ord >= b.ord -> best
    | _ ->
      pr.checked <- pr.checked + 1;
      let holds =
        match e.body with
        | Eval _ ->
          List.memq e pr.evaluated
          || begin
            pr.evaluated <- e :: pr.evaluated;
            entry_holds t v e
          end
        | Compiled _ ->
          not (List.exists (fun row -> pinned_escapes t v e row probes) rows)
      in
      if holds then scan t v pr best rows watches else Some e)

let delta_check t watching ~base ~delta ~added =
  match groups watching [] added with
  | [] -> None (* no CC reads an added relation *)
  | gs ->
    let v = view ~base ~delta in
    (* Every new LHS answer uses an added row, which the probes pinned
       on its relation find: a CC is violated iff some group finds it
       so, and the declaration-first violated CC is the least of the
       groups' first ones — so a group stops at the best found so far.
       A CC without a UCQ form is evaluated in the first group reaching
       it; a later group reaches it only if it held. *)
    let pr = { checked = 0; evaluated = [] } in
    let best =
      List.fold_left (fun best (watches, rows) -> scan t v pr best !rows watches) None gs
    in
    Ric_obs.Metrics.add m_delta_checks pr.checked;
    match best with
    | Some e -> e.violated
    | None -> None

let check_adds t ~base ~delta ~added = delta_check t t.by_rel ~base ~delta ~added

let check_add t ~base ~delta ~rel ~tuple =
  check_adds t ~base ~delta ~added:[ (rel, tuple) ]

(* A generated tuple satisfies every generator of its relation, and
   only its own probe could break one: the generators are skipped. *)
let check_generated t ~base ~delta ~rel ~tuple =
  delta_check t t.by_rel_rest ~base ~delta ~added:[ (rel, tuple) ]

let drop_indexes t = Kernel.Store.clear t.store

let mem_answer t ~base ~delta q tuple =
  let v = view ~base ~delta in
  match disjuncts q with
  | ns ->
    let row = Intern.row tuple in
    List.exists
      (fun (n : Cq.norm) ->
        let p = compile n.Cq.n_atoms n in
        match Kernel.unify_encoded p.head row with
        | None -> false (* the head cannot produce [tuple] *)
        | Some init ->
          Kernel.run t.store ~lookup:v.lookup ~extra:v.extra ~init p.plan (fun _ ->
              true))
      ns
  | exception Not_compilable -> Relation.mem tuple (Lang.eval (Lazy.force v.db) q)

(* ------------------------------------------------------------------ *)
(* Candidate generation.

   A tableau atom's candidates are the product of its unbound
   variables' candidate lists, enumerated variable by variable in list
   order.  A generator CC of the atom's relation keeps a candidate iff
   the tuple does not match the CC's atom or its head lands in the RHS.
   [generate] yields exactly the product candidates every generator
   keeps, in product order: a generator's selection is decided at the
   depth that binds its last variable, and once it matches, each
   variable its head covers is drawn from the RHS rows that agree with
   the head columns bound so far — intersected with the variable's
   candidates and put back in their order — while the other variables
   range over their whole lists.  (With no column bound yet and an RHS
   at least half as long as the list, the list is filtered instead,
   one probe per value: the same values, for less.)

   Operands are value ids: an interned constant, or a register — the
   enumerated variables first, then the atom's other variables, read
   from the valuation once per call. *)

type operand =
  | Id of int
  | Reg of int

(* one generator unified with one atom *)
type step = {
  s_gen : generator;
  s_eqs : (operand * operand) list; (* the selection *)
  s_head : operand array;
  s_depth : int array; (* per head column: the depth binding it, -1 = on entry *)
  s_on : int; (* the depth deciding the selection, -1 = on entry *)
}

type gen = {
  vars : string array; (* enumerated, outermost first *)
  cands : cands array;
  reads : bool array; (* per variable: does a step read its register? *)
  outer : string array;
  steps : step array;
  covering : int list array; (* per depth: the steps whose head reads its variable *)
  drawn : int list array; (* per depth: those worth drawing it from *)
  decided : int list array; (* per depth + 1: the steps it decides *)
}

(* Built on first use, by whichever domain gets there first: a race
   builds two equal values and keeps one. *)
let memo cell f =
  match Atomic.get cell with
  | Some v -> v
  | None ->
    let v = f () in
    Atomic.set cell (Some v);
    v

let rhs_rix g = memo g.g_rix (fun () -> Rix.build g.g_entry.rhs_rel)

let unify_step ~operand ~depth g (a : Atom.t) =
  if List.compare_lengths g.g_atom.Atom.args a.Atom.args <> 0 then None
  else begin
    let binding = Hashtbl.create 8 in
    let eqs =
      List.fold_left2
        (fun eqs p t ->
          let o = operand t in
          match p with
          | Term.Const c -> (Id (Intern.id c), o) :: eqs
          | Term.Var x -> (
            match Hashtbl.find_opt binding x with
            | Some o0 -> (o0, o) :: eqs
            | None ->
              Hashtbl.add binding x o;
              eqs))
        [] g.g_atom.Atom.args a.Atom.args
      |> List.filter (fun (o, o') -> o <> o')
    in
    (* two distinct constants: no tuple of this atom ever matches *)
    if List.exists (function Id _, Id _ -> true | _ -> false) eqs then None
    else begin
      let head =
        Array.of_list
          (List.map
             (function
               | Term.Const c -> Id (Intern.id c)
               | Term.Var x -> Hashtbl.find binding x)
             g.g_head)
      in
      Some
        {
          s_gen = g;
          s_eqs = eqs;
          s_head = head;
          s_depth = Array.map depth head;
          s_on = List.fold_left (fun m (o, o') -> max m (max (depth o) (depth o'))) (-1) eqs;
        }
    end
  end

let fresh_cands cs = { values = Array.of_list cs; positions = Atomic.make None }

(* [t]'s record for the list [cs], made on first use.  Only the most
   recent lists are kept: a checker serves every search of a decide,
   and a finite domain intersected from two columns is a new list in
   each search, so keeping them all would grow without bound (a miss
   only costs the positions map being built again). *)
let max_lists = 16

let shared_cands t cs =
  let known = Atomic.get t.lists in
  match List.assq_opt cs known with
  | Some c -> c
  | None ->
    let c = fresh_cands cs in
    Atomic.set t.lists ((cs, c) :: List.filteri (fun i _ -> i < max_lists - 1) known);
    c

let build ~cands_of doms outer steps =
  let vars = Array.of_list (List.map fst doms) in
  let cands = Array.of_list (List.map (fun (_, cs) -> cands_of cs) doms) in
  let k = Array.length vars in
  let reads j s =
    Array.mem (Reg j) s.s_head || List.exists (fun (o, o') -> o = Reg j || o' = Reg j) s.s_eqs
  in
  let indexes p = List.filter p (List.init (Array.length steps) Fun.id) in
  let covering =
    Array.init k (fun j ->
        indexes (fun i -> steps.(i).s_on < j && Array.mem (Reg j) steps.(i).s_head))
  in
  (* Drawing scans the RHS rows agreeing with the columns bound before
     [j] and sorts what they supply; with none bound, that is the whole
     RHS, and unless it is under half as long as the list, filtering
     the list — one probe per value, stopping with the visit — costs
     no more. *)
  let drawn =
    Array.mapi
      (fun j is ->
        List.filter
          (fun i ->
            let s = steps.(i) in
            Array.exists (fun d -> d < j) s.s_depth
            || 2 * Relation.cardinal s.s_gen.g_entry.rhs_rel < Array.length cands.(j).values)
          is)
      covering
  in
  let decided = Array.init (k + 1) (fun d -> indexes (fun i -> steps.(i).s_on = d - 1)) in
  {
    vars;
    cands;
    reads = Array.init k (fun j -> Array.exists (reads j) steps);
    outer;
    steps;
    covering;
    drawn;
    decided;
  }

let product doms = build ~cands_of:fresh_cands doms [||] [||]

let generator t (a : Atom.t) doms =
  let vars = List.map fst doms in
  let outer = List.filter (fun x -> not (List.mem x vars)) (Atom.vars a) in
  let k = List.length vars in
  let rec index i x = function
    | [] -> raise Not_found
    | y :: rest -> if String.equal x y then i else index (i + 1) x rest
  in
  let operand = function
    | Term.Const c -> Id (Intern.id c)
    | Term.Var x -> (
      match index 0 x vars with
      | j -> Reg j
      | exception Not_found -> Reg (k + index 0 x outer))
  in
  let depth = function Reg j when j < k -> j | Id _ | Reg _ -> -1 in
  let steps =
    Option.value ~default:[] (Hashtbl.find_opt t.generators a.Atom.rel)
    |> List.filter_map (fun g -> unify_step ~operand ~depth g a)
  in
  build ~cands_of:(shared_cands t) doms (Array.of_list outer) (Array.of_list steps)

let sources g =
  Array.to_list
    (Array.map (fun s -> Option.get s.s_gen.g_entry.violated) g.steps)

let generate g mu visit =
  let k = Array.length g.vars in
  let regs = Array.make (k + Array.length g.outer) 0 in
  Array.iteri
    (fun i x ->
      match Valuation.find x mu with
      | Some v -> regs.(k + i) <- Intern.id v
      | None -> invalid_arg ("Checker.generate: unbound variable " ^ x))
    g.outer;
  let on = Array.make (Array.length g.steps) false in
  let get = function Id c -> c | Reg r -> regs.(r) in
  (* some RHS row agrees with every head column bound by depth [d] *)
  let consistent s d =
    if Array.for_all (fun dc -> dc <= d) s.s_depth then
      Kernel.Rowset.mem s.s_gen.g_entry.rhs_ids (Array.map get s.s_head)
    else begin
      let pinned = ref [] in
      Array.iteri (fun c dc -> if dc <= d then pinned := c :: !pinned) s.s_depth;
      match !pinned with
      | [] -> not (Relation.is_empty s.s_gen.g_entry.rhs_rel)
      | c0 :: _ as cols ->
        let rix = rhs_rix s.s_gen in
        List.exists
          (fun i ->
            let row = Rix.row rix i in
            List.for_all (fun c -> row.(c) = get s.s_head.(c)) cols)
          (Rix.bucket rix c0 (get s.s_head.(c0)))
    end
  in
  (* decide the selections depth [d] completes: false when one matches
     and no RHS row agrees *)
  let decide d =
    List.for_all
      (fun i ->
        let s = g.steps.(i) in
        let m = List.for_all (fun (o, o') -> get o = get o') s.s_eqs in
        on.(i) <- m;
        (not m) || consistent s d)
      g.decided.(d + 1)
  in
  (* the positions of variable [j]'s candidates that [s]'s RHS rows
     agreeing with the columns bound before [j] supply, in order *)
  let draw s j =
    let cands = g.cands.(j) in
    let pos =
      memo cands.positions (fun () ->
          let h = Hashtbl.create 64 in
          Array.iteri (fun p c -> Hashtbl.add h (Intern.id c) p) cands.values;
          h)
    in
    let rix = rhs_rix s.s_gen in
    let rows = Rix.rows rix in
    let pinned = ref [] and targets = ref [] in
    Array.iteri
      (fun c dc ->
        if dc < j then pinned := c :: !pinned
        else if s.s_head.(c) = Reg j then targets := c :: !targets)
      s.s_depth;
    let t0 = List.hd !targets in
    let acc = ref [] in
    let take i =
      let row = rows.(i) in
      if
        List.for_all (fun c -> row.(c) = get s.s_head.(c)) !pinned
        && List.for_all (fun c -> row.(c) = row.(t0)) !targets
      then acc := List.rev_append (Hashtbl.find_all pos row.(t0)) !acc
    in
    (match !pinned with
     | [] -> Array.iteri (fun i _ -> take i) rows
     | c0 :: _ -> List.iter take (Rix.bucket rix c0 (get s.s_head.(c0))));
    List.sort_uniq Int.compare !acc
  in
  let rec go j mu =
    if j = k then visit mu
    else begin
      let source = List.find_opt (fun i -> on.(i)) g.drawn.(j) in
      let others i = source <> Some i && on.(i) in
      let read = g.reads.(j) and values = g.cands.(j).values in
      let try_pos p =
        if read then regs.(j) <- Intern.id values.(p);
        List.for_all (fun i -> (not (others i)) || consistent g.steps.(i) j) g.covering.(j)
        && decide j
        && go (j + 1) (Valuation.add g.vars.(j) values.(p) mu)
      in
      match source with
      | Some i -> List.exists try_pos (draw g.steps.(i) j)
      | None ->
        let n = Array.length values in
        let rec loop p = p < n && (try_pos p || loop (p + 1)) in
        loop 0
    end
  in
  decide (-1) && go 0 mu

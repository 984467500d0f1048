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

   Per check, plans join over [base]'s relations, each probed through
   its own column index, plus [delta] as a small interned overlay,
   stopping at the first answer escaping the cached RHS (a [frame]
   holds both, below).  FO/FP or unsafe LHSs keep the full-evaluation
   path so they raise (or recurse) exactly as
   [Containment.holds_all].  [mem_answer] runs a query's disjuncts the
   same way, with the head bound to the asked tuple instead of a
   pinned atom. *)

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
}

(* One candidate list, as an array, with its value id -> positions
   map (built on first draw): the search hands every variable of one
   domain the same list, so a checker keeps one per list. *)
type cands = {
  ids : int array; (* the list's values, interned *)
  positions : (int, int) Hashtbl.t option Atomic.t;
}

type t = {
  entries : entry list;
  by_rel : (string, (entry * probe list) list) Hashtbl.t;
  by_rel_rest : (string, (entry * probe list) list) Hashtbl.t;
      (* [by_rel] less the generators: what a generated tuple needs *)
  generators : (string, generator list) Hashtbl.t; (* in declaration order *)
  lists : (Value.t list * cands) list Atomic.t; (* keyed by physical identity *)
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
              { g_entry = e; g_atom = a; g_head = n_head };
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
  { entries; by_rel; by_rel_rest; generators; lists = Atomic.make [] }

(* A frame: one base database and an overlay of interned rows per
   relation, with the plans its checks run bound to both on first use
   (base relation and overlay resolved once per frame, not per check).
   [check] and friends make one per call from a [delta] database; the
   valuation search makes one per search and pushes and pops its
   levels' rows itself. *)
type frame = {
  chk : t;
  base : Database.t;
  mutable overlays : (string * Kernel.Overlay.t) list;
  mutable full : (entry * bplan list) list option; (* every entry, bound *)
  mutable watches : (string * watch) list; (* [by_rel], bound per relation *)
  mutable rest_watches : (string * watch) list; (* [by_rel_rest] *)
}

(* a plan bound in a frame; [escapes] is its run's answer test *)
and bplan = {
  bound : Kernel.bound;
  escapes : int array -> bool;
}

and bprobe = {
  b_pinned : int array;
  b_rest : bplan;
}

and watch = {
  w_frame : frame;
  w_list : (entry * bprobe list) list; (* in declaration order *)
}

let frame t ~base = { chk = t; base; overlays = []; full = None; watches = []; rest_watches = [] }

let rec find rel = function
  | [] -> None
  | (r, x) :: rest -> if String.equal r rel then Some x else find rel rest

let overlay f rel =
  match find rel f.overlays with
  | Some o -> o
  | None ->
    let o = Kernel.Overlay.create () in
    f.overlays <- (rel, o) :: f.overlays;
    o

let frame_of t ~base ~delta =
  let f = frame t ~base in
  Database.fold
    (fun rel r () ->
      let o = overlay f rel in
      Array.iter (Kernel.Overlay.push o) (Relation.rows r))
    delta ();
  f

let bind f plan =
  Kernel.bind plan ~overlay:(overlay f) ~lookup:(fun rel ->
      try Database.relation f.base rel with Not_found -> Relation.empty)

let bind_plan f e p =
  let buf = Array.make (Array.length p.head) 0 in
  {
    bound = bind f p.plan;
    escapes =
      (fun regs -> Kernel.ground p.head regs buf && not (Kernel.Rowset.mem e.rhs_ids buf));
  }

(* [base ∪ overlay] as a database: the full-evaluation path only *)
let materialise f =
  let added = ref [] in
  List.iter
    (fun (rel, o) ->
      Kernel.Overlay.iter (fun row -> added := (rel, Array.map Intern.value row) :: !added) o)
    f.overlays;
  Database.add_tuples f.base !added

(* Does some answer of [bp] (pinned on [row] by [pin]) escape the
   cached RHS? *)
let escapes bp ~pin ~row = Kernel.run bp.bound ~pin ~row bp.escapes

let rec any_escapes = function
  | [] -> false
  | bp :: bplans -> escapes bp ~pin:[||] ~row:[||] || any_escapes bplans

(* [db] is [materialise f], forced by the first CC without a UCQ form
   a check reaches *)
let entry_holds db e bplans =
  match e.body with
  | Compiled _ -> not (any_escapes bplans)
  | Eval lhs -> Relation.subset (Lang.eval (Lazy.force db) lhs) e.rhs_rel

let full_entries f =
  match f.full with
  | Some l -> l
  | None ->
    let l =
      List.map
        (fun e ->
          (e, match e.body with Compiled ps -> List.map (bind_plan f e) ps | Eval _ -> []))
        f.chk.entries
    in
    f.full <- Some l;
    l

(* Counters are bumped once per check, by the number of CCs checked. *)
let check_frame f =
  let db = lazy (materialise f) in
  let rec go n = function
    | [] ->
      Ric_obs.Metrics.add m_full_checks n;
      None
    | (e, bplans) :: rest ->
      if entry_holds db e bplans then go (n + 1) rest
      else begin
        Ric_obs.Metrics.add m_full_checks (n + 1);
        e.violated
      end
  in
  go 0 (full_entries f)

let check t ~base ~delta = check_frame (frame_of t ~base ~delta)

let watch f ~generated rel =
  match find rel (if generated then f.rest_watches else f.watches) with
  | Some w -> w
  | None ->
    let src = if generated then f.chk.by_rel_rest else f.chk.by_rel in
    let w_list =
      List.map
        (fun (e, probes) ->
          ( e,
            List.map (fun p -> { b_pinned = p.pinned; b_rest = bind_plan f e p.rest }) probes ))
        (Option.value ~default:[] (Hashtbl.find_opt src rel))
    in
    let w = { w_frame = f; w_list } in
    if generated then f.rest_watches <- (rel, w) :: f.rest_watches
    else f.watches <- (rel, w) :: f.watches;
    w

(* Does some LHS answer of an entry through one of [probes], pinned on
   the inserted interned [row], escape the cached RHS? *)
let rec pinned_escapes row = function
  | [] -> false
  | p :: probes -> escapes p.b_rest ~pin:p.b_pinned ~row || pinned_escapes row probes

(* One delta check's progress: the CCs checked so far, those without
   a UCQ form already evaluated (and found to hold), and [base ∪
   overlay], materialised by the first of them the check reaches. *)
type progress = {
  mutable checked : int;
  mutable evaluated : entry list;
  db : Database.t Lazy.t;
}

let progress f = { checked = 0; evaluated = []; db = lazy (materialise f) }

(* The first CC of [watches] violated through the probes pinned on
   [rows], in declaration order, or [best] if none comes before it. *)
let rec scan pr best rows = function
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
            entry_holds pr.db e []
          end
        | Compiled _ -> not (List.exists (fun row -> pinned_escapes row probes) rows)
      in
      if holds then scan pr best rows watches else Some e)

let violated pr best =
  Ric_obs.Metrics.add m_delta_checks pr.checked;
  match best with
  | Some e -> e.violated
  | None -> None

let check_row w row =
  let pr = progress w.w_frame in
  violated pr (scan pr None [ row ] w.w_list)

(* The interned added rows of each relation some CC reads, grouped by
   relation (in reverse order of first appearance). *)
let rec groups t acc = function
  | [] -> acc
  | (rel, tuple) :: added ->
    if not (Hashtbl.mem t.by_rel rel) then groups t acc added
    else begin
      let row = Intern.row tuple in
      match List.assoc_opt rel acc with
      | Some rows ->
        rows := row :: !rows;
        groups t acc added
      | None -> groups t ((rel, ref [ row ]) :: acc) added
    end

let check_adds t ~base ~delta ~added =
  match groups t [] added with
  | [] -> None (* no CC reads an added relation *)
  | gs ->
    let f = frame_of t ~base ~delta in
    (* Every new LHS answer uses an added row, which the probes pinned
       on its relation find: a CC is violated iff some group finds it
       so, and the declaration-first violated CC is the least of the
       groups' first ones — so a group stops at the best found so far.
       A CC without a UCQ form is evaluated in the first group reaching
       it; a later group reaches it only if it held. *)
    let pr = progress f in
    violated pr
      (List.fold_left
         (fun best (rel, rows) -> scan pr best !rows (watch f ~generated:false rel).w_list)
         None gs)

let check_add t ~base ~delta ~rel ~tuple = check_adds t ~base ~delta ~added:[ (rel, tuple) ]

let mem_answer t ~base ~delta q tuple =
  let f = frame_of t ~base ~delta in
  match disjuncts q with
  | ns ->
    let row = Intern.row tuple in
    List.exists
      (fun (n : Cq.norm) ->
        let p = compile n.Cq.n_atoms n in
        Kernel.run (bind f p.plan) ~pin:p.head ~row (fun _ -> true))
      ns
  | exception Not_compilable -> Relation.mem tuple (Lang.eval (materialise f) q)

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

   Operands are value ids: an interned constant, or a register of the
   caller's register file — where [generate] writes each enumerated
   variable's candidate and reads the atom's other variables. *)

type operand =
  | Id of int
  | Reg of int (* a slot of the caller's registers *)

(* one generator unified with one atom *)
type step = {
  s_gen : generator;
  s_eqs : (operand * operand) list; (* the selection *)
  s_head : operand array;
  s_depth : int array; (* per head column: the depth binding it, -1 = on entry *)
  s_full : int; (* the depth binding the whole head *)
  s_pinned : int array array;
      (* [s_pinned.(d + 1)], for [d < s_full]: the head columns bound by
         depth [d], in decreasing order *)
  s_on : int; (* the depth deciding the selection, -1 = on entry *)
}

(* Drawing variable [j] from step [d_step]'s RHS: the head columns
   bound before [j] (they select the RHS rows) and those holding [j]
   (a row supplies its value there, if they agree). *)
type draw = {
  d_step : int;
  d_pinned : int array;
  d_targets : int array;
}

type gen = {
  slots : int array; (* the enumerated variables' slots, outermost first *)
  cands : cands array;
  steps : step array;
  covering : int list array; (* per depth: the steps whose head reads its variable *)
  drawn : draw list array; (* per depth: those worth drawing it from *)
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
      let s_depth = Array.map depth head in
      let s_full = Array.fold_left max (-1) s_depth in
      let cols = List.init (Array.length head) Fun.id in
      Some
        {
          s_gen = g;
          s_eqs = eqs;
          s_head = head;
          s_depth;
          s_full;
          s_pinned =
            Array.init (s_full + 1) (fun i ->
                Array.of_list (List.rev (List.filter (fun c -> s_depth.(c) <= i - 1) cols)));
          s_on = List.fold_left (fun m (o, o') -> max m (max (depth o) (depth o'))) (-1) eqs;
        }
    end
  end

let fresh_cands cs =
  { ids = Array.of_list (List.map Intern.id cs); positions = Atomic.make None }

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

let build ~cands_of ~slot doms steps =
  let slots = Array.of_list (List.map (fun (x, _) -> slot x) doms) in
  let cands = Array.of_list (List.map (fun (_, cs) -> cands_of cs) doms) in
  let k = Array.length slots in
  let indexes p = List.filter p (List.init (Array.length steps) Fun.id) in
  let covering =
    Array.init k (fun j ->
        indexes (fun i -> steps.(i).s_on < j && Array.mem (Reg slots.(j)) steps.(i).s_head))
  in
  (* Drawing scans the RHS rows agreeing with the columns bound before
     [j] and sorts what they supply; with none bound, that is the whole
     RHS, and unless it is under half as long as the list, filtering
     the list — one probe per value, stopping with the visit — costs
     no more. *)
  let columns p s =
    (* in decreasing order: the last pinned column is the one probed *)
    List.rev (List.filter (fun c -> p c s.s_depth.(c)) (List.init (Array.length s.s_depth) Fun.id))
    |> Array.of_list
  in
  let drawn =
    Array.mapi
      (fun j is ->
        List.filter_map
          (fun i ->
            let s = steps.(i) in
            if
              Array.exists (fun d -> d < j) s.s_depth
              || 2 * Relation.cardinal s.s_gen.g_entry.rhs_rel < Array.length cands.(j).ids
            then
              Some
                {
                  d_step = i;
                  d_pinned = columns (fun _ d -> d < j) s;
                  d_targets = columns (fun c d -> d >= j && s.s_head.(c) = Reg slots.(j)) s;
                }
            else None)
          is)
      covering
  in
  let decided = Array.init (k + 1) (fun d -> indexes (fun i -> steps.(i).s_on = d - 1)) in
  { slots; cands; steps; covering; drawn; decided }

let product ~slot doms = build ~cands_of:fresh_cands ~slot doms [||]

let generator t ~slot (a : Atom.t) doms =
  let enumerated = List.map (fun (x, _) -> slot x) doms in
  let rec index i s = function
    | [] -> -1
    | s' :: rest -> if s = s' then i else index (i + 1) s rest
  in
  let operand = function
    | Term.Const c -> Id (Intern.id c)
    | Term.Var x -> Reg (slot x)
  in
  (* an enumerated variable's depth is its position; the others are
     bound on entry *)
  let depth = function
    | Reg s -> index 0 s enumerated
    | Id _ -> -1
  in
  let steps =
    Option.value ~default:[] (Hashtbl.find_opt t.generators a.Atom.rel)
    |> List.filter_map (fun g -> unify_step ~operand ~depth g a)
  in
  build ~cands_of:(shared_cands t) ~slot doms (Array.of_list steps)

let sources g =
  Array.to_list
    (Array.map (fun s -> Option.get s.s_gen.g_entry.violated) g.steps)

let generate g regs visit =
  let k = Array.length g.slots in
  let on = Array.make (Array.length g.steps) false in
  (* per step: its head's values, when the head is ground *)
  let vals = Array.map (fun s -> Array.make (Array.length s.s_head) 0) g.steps in
  let get = function Id c -> c | Reg r -> regs.(r) in
  (* some RHS row agrees with every head column bound by depth [d] *)
  let consistent i d =
    let s = g.steps.(i) in
    if s.s_full <= d then begin
      let v = vals.(i) in
      Array.iteri (fun c o -> v.(c) <- get o) s.s_head;
      Kernel.Rowset.mem s.s_gen.g_entry.rhs_ids v
    end
    else
      let cols = s.s_pinned.(d + 1) in
      if Array.length cols = 0 then not (Relation.is_empty s.s_gen.g_entry.rhs_rel)
      else begin
        let rhs = s.s_gen.g_entry.rhs_rel in
        let rows = Relation.rows rhs in
        let rec agrees row n =
          n = Array.length cols || (row.(cols.(n)) = get s.s_head.(cols.(n)) && agrees row (n + 1))
        in
        let rec any = function
          | [] -> false
          | i :: is -> agrees rows.(i) 0 || any is
        in
        any (Relation.bucket rhs cols.(0) (get s.s_head.(cols.(0))))
      end
  in
  let rec eqs_hold = function
    | [] -> true
    | (o, o') :: eqs -> get o = get o' && eqs_hold eqs
  in
  (* decide the selections depth [d] completes: false when one matches
     and no RHS row agrees *)
  let rec decide d = function
    | [] -> true
    | i :: is ->
      let m = eqs_hold g.steps.(i).s_eqs in
      on.(i) <- m;
      ((not m) || consistent i d) && decide d is
  in
  (* the positions of variable [j]'s candidates that the drawing
     step's RHS rows agreeing with the columns bound before [j] supply,
     in order *)
  let draw d j =
    let s = g.steps.(d.d_step) and pinned = d.d_pinned in
    let cands = g.cands.(j) in
    let pos =
      memo cands.positions (fun () ->
          let h = Hashtbl.create 64 in
          Array.iteri (fun p id -> Hashtbl.add h id p) cands.ids;
          h)
    in
    let rhs = s.s_gen.g_entry.rhs_rel in
    let rows = Relation.rows rhs in
    let t0 = d.d_targets.(0) in
    let acc = ref [] in
    let take i =
      let row = rows.(i) in
      let rec agree n =
        n = Array.length pinned || (row.(pinned.(n)) = get s.s_head.(pinned.(n)) && agree (n + 1))
      in
      if agree 0 && Array.for_all (fun c -> row.(c) = row.(t0)) d.d_targets then
        acc := List.rev_append (Hashtbl.find_all pos row.(t0)) !acc
    in
    if Array.length pinned = 0 then Array.iteri (fun i _ -> take i) rows
    else List.iter take (Relation.bucket rhs pinned.(0) (get s.s_head.(pinned.(0))));
    List.sort_uniq Int.compare !acc
  in
  let rec go j =
    if j = k then visit ()
    else begin
      let source = List.find_opt (fun d -> on.(d.d_step)) g.drawn.(j) in
      let drawing = match source with Some d -> d.d_step | None -> -1 in
      (* the covering steps other than the drawing one must still find
         an agreeing RHS row *)
      let rec covered = function
        | [] -> true
        | i :: is -> (i = drawing || (not on.(i)) || consistent i j) && covered is
      in
      let slot = g.slots.(j) and ids = g.cands.(j).ids in
      let try_pos p =
        regs.(slot) <- ids.(p);
        covered g.covering.(j) && decide j g.decided.(j + 1) && go (j + 1)
      in
      match source with
      | Some d -> List.exists try_pos (draw d j)
      | None ->
        let n = Array.length ids in
        let rec loop p = p < n && (try_pos p || loop (p + 1)) in
        loop 0
    end
  in
  decide (-1) g.decided.(0) && go 0

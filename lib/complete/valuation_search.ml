open Ric_relational
open Ric_query
open Ric_constraints

module Profile = Ric_obs.Profile

(* The greedy fewest-unbound-first atom pick depends only on the {e
   set} of bound variables — never on their values — and that set is
   the same in every branch at the same tree position, so the whole
   instantiation order is computed once, at {!compile}.  [plan_levels]
   replays the pick: at each level the atom with the fewest unbound
   variables is selected (earliest atom wins ties, matching the old
   per-node fold), its unbound variables and their candidate lists are
   recorded, and its variables are marked bound.  Every branch then
   instantiates atoms in exactly this order.  Atoms are picked by
   position, so a tableau repeating an atom (even physically shared)
   instantiates every copy. *)
type level = {
  l_atom : Atom.t;
  l_doms : (string * Value.t list) list; (* unbound vars × candidates *)
}

let plan_levels ~adom (tab : Tableau.t) =
  let var_doms = Tableau.var_domains tab in
  let cands x =
    match List.assoc_opt x var_doms with
    | Some d -> Adom.candidates adom d
    | None -> Adom.candidates adom Domain.Infinite
  in
  let atoms = Array.of_list tab.Tableau.patterns in
  let vars = Array.map Atom.vars atoms in
  (* per atom: taken yet, and how many of its variables are unbound;
     per variable: the atoms it occurs in *)
  let taken = Array.make (Array.length atoms) false in
  let unbound = Array.map List.length vars in
  let occurs = Hashtbl.create 16 in
  Array.iteri (fun i -> List.iter (fun x -> Hashtbl.add occurs x i)) vars;
  let bound = Hashtbl.create 16 in
  let pick () =
    let best = ref (-1) in
    Array.iteri
      (fun i n -> if (not taken.(i)) && (!best < 0 || n < unbound.(!best)) then best := i)
      unbound;
    !best
  in
  List.init (Array.length atoms) (fun _ ->
      let i = pick () in
      taken.(i) <- true;
      let fresh = List.filter (fun x -> not (Hashtbl.mem bound x)) vars.(i) in
      List.iter
        (fun x ->
          Hashtbl.replace bound x ();
          List.iter (fun a -> unbound.(a) <- unbound.(a) - 1) (Hashtbl.find_all occurs x))
        fresh;
      { l_atom = atoms.(i); l_doms = List.map (fun x -> (x, cands x)) fresh })
  |> Array.of_list

(* A compiled search: the levels, the variable -> slot map (a slot per
   variable, numbered in the order the levels bind them), each level's
   generator and the inequality schedule.  Everything here depends on
   the tableau, the active domain and the checker only, so one
   compiled search serves every run over any base. *)
type compiled_level = {
  atom : Atom.t;
  conforms : bool; (* every constant of [atom] is in its column's domain *)
  args : int array; (* per column: a slot, or a constant -(id + 1) *)
  doms : (string * Value.t list) list;
  neqs : (int * int) array; (* the inequalities this level grounds, encoded as [args] *)
}

type t = {
  tab : Tableau.t;
  chk : Checker.t;
  levels : compiled_level array;
  slots : (string, int) Hashtbl.t;
  vars : string array; (* slot -> variable *)
  gens : Checker.gen array; (* each level's candidates, drawn from its generators *)
  product : Checker.gen array Lazy.t; (* ... or the plain product *)
  root_neqs : (int * int) array; (* constant inequalities, when no level checks them *)
}

let compile ~checker ~adom (tab : Tableau.t) =
  let planned = plan_levels ~adom tab in
  let slots = Hashtbl.create 16 in
  Array.iter
    (fun l -> List.iter (fun (x, _) -> Hashtbl.replace slots x (Hashtbl.length slots)) l.l_doms)
    planned;
  let vars = Array.make (Hashtbl.length slots) "" in
  Hashtbl.iter (fun x s -> vars.(s) <- x) slots;
  let slot x = Hashtbl.find slots x in
  (* the level binding each slot *)
  let bound_at = Array.make (Array.length vars) 0 in
  Array.iteri (fun lv l -> List.iter (fun (x, _) -> bound_at.(slot x) <- lv) l.l_doms) planned;
  let encode = function
    | Term.Var x -> slot x
    | Term.Const c -> -Intern.id c - 1
  in
  (* Each inequality is checked at the level binding its later side,
     after that level's tick: the same candidates fail as when every
     step re-checked every ground inequality, since those of earlier
     levels already held.  One with a variable no atom binds is never
     ground, so never checked; one between constants is checked at
     level 0, or at the leaf when there is no level. *)
  let level_of = function
    | Term.Var x -> bound_at.(slot x)
    | Term.Const _ -> 0
  in
  let known = function Term.Var x -> Hashtbl.mem slots x | Term.Const _ -> true in
  let neqs = List.filter (fun (a, b) -> known a && known b) tab.Tableau.neqs in
  let at lv =
    List.filter (fun (a, b) -> max (level_of a) (level_of b) = lv) neqs
    |> List.map (fun (a, b) -> (encode a, encode b))
    |> Array.of_list
  in
  let levels =
    Array.mapi
      (fun lv l ->
        {
          atom = l.l_atom;
          conforms = Atom.constants_conform tab.Tableau.schema l.l_atom;
          args = Array.of_list (List.map encode l.l_atom.Atom.args);
          doms = l.l_doms;
          neqs = at lv;
        })
      planned
  in
  {
    tab;
    chk = checker;
    levels;
    slots;
    vars;
    gens = Array.map (fun l -> Checker.generator checker ~slot l.atom l.doms) levels;
    product = lazy (Array.map (fun l -> Checker.product ~slot l.doms) levels);
    root_neqs = (if Array.length levels = 0 then at 0 else [||]);
  }

(* an encoded argument's value id: a constant, or a register *)
let value_of regs a = if a < 0 then -a - 1 else regs.(a)

let rec neqs_ok regs neqs i =
  i = Array.length neqs
  ||
  let a, b = neqs.(i) in
  value_of regs a <> value_of regs b && neqs_ok regs neqs (i + 1)

(* A valid valuation reached by a run, readable during its visit: the
   registers and each level's row. *)
type leaf = {
  search : t;
  regs : int array;
  rows : int array array;
}

let value leaf x =
  match Hashtbl.find_opt leaf.search.slots x with
  | Some s -> Some (Intern.value leaf.regs.(s))
  | None -> None

let tuple leaf terms =
  Tuple.make
    (List.map
       (function
         | Term.Const c -> c
         | Term.Var x -> (
           match Hashtbl.find_opt leaf.search.slots x with
           | Some s -> Intern.value leaf.regs.(s)
           | None -> invalid_arg ("Valuation_search.tuple: unbound variable " ^ x)))
       terms)

let valuation leaf =
  let mu = ref Valuation.empty in
  Array.iteri (fun s x -> mu := Valuation.add x (Intern.value leaf.regs.(s)) !mu) leaf.search.vars;
  !mu

(* a tuple is its values' array *)
let tuple_of_row row : Tuple.t = Array.map Intern.value row

(* each relation built once from copies of the levels' interned rows
   (the search reuses the rows themselves) *)
let extension leaf =
  let by_rel = Hashtbl.create 4 in
  Array.iteri
    (fun lv l ->
      let rel = l.atom.Atom.rel and row = Array.copy leaf.rows.(lv) in
      Hashtbl.replace by_rel rel (row :: Option.value ~default:[] (Hashtbl.find_opt by_rel rel)))
    leaf.search.levels;
  Hashtbl.fold
    (fun rel rows db -> Database.set_relation db rel (Relation.of_rows rows))
    by_rel
    (Database.empty leaf.search.tab.Tableau.schema)

(* One run of a compiled search over one base.  The root is [base]
   itself: in [`Against_base D] and [`Closed_base D] mode the run
   checks [D ∪ μ(T)], in [`Delta_only] mode [μ(T)] alone; a closed
   base is known to satisfy every CC, so only the other two modes
   check the root.  Once the root satisfies every CC,
   every step only needs the delta check of its row (the constraints
   are monotone, so only joins through the new tuple can break them),
   and a level's candidates are drawn from its generator CCs, so the
   check covers the other CCs only; otherwise every level is the plain
   product and every step runs the full check, which fails (or, for
   an unsafe LHS, raises) exactly where a re-check from scratch
   would. *)
type run = {
  s : t;
  budget : Budget.t;
  prof : Profile.search option; (* the explain recorder, [None] in production *)
  on_prune : unit -> unit;
  visit : leaf -> bool;
  frame : Checker.frame;
  delta_ok : bool; (* the root satisfies every CC *)
  run_gens : Checker.gen array;
  watches : Checker.watch array; (* per level, when [delta_ok] *)
  overlays : Kernel.Overlay.t array; (* per level: its relation's rows *)
  leaf : leaf;
}

(* Enumerate every candidate instantiation of the atom at level [lv],
   charging one budget tick per candidate, and descend into each one
   that passes the inequality and constraint checks.  Exists-style:
   stops at the first [true].  A candidate's row is the level's own
   buffer: pushed into the overlay of its relation while checked and
   while the deeper levels run, popped after.  Each budget tick is
   mirrored as a level step in the profile, and a pruned branch is
   attributed to the constraint the check names. *)
let rec dfs r lv =
  let levels = r.s.levels in
  if lv = Array.length levels then neqs_ok r.leaf.regs r.s.root_neqs 0 && r.visit r.leaf
  else begin
    let l = levels.(lv) and regs = r.leaf.regs and row = r.leaf.rows.(lv) in
    let ov = r.overlays.(lv) in
    Checker.generate r.run_gens.(lv) regs (fun () ->
        (* profile before tick: [tick] counts the step even when it
           raises [Exhausted], so attributing first keeps a timed-out
           run's profile in exact agreement with the budget's step
           total *)
        (match r.prof with None -> () | Some sr -> Profile.step sr lv);
        Budget.tick r.budget;
        neqs_ok regs l.neqs 0
        && begin
          for i = 0 to Array.length row - 1 do
            row.(i) <- value_of regs l.args.(i)
          done;
          (* a constant outside its column's finite domain: no
             database of the schema holds this tuple, so the step
             raises as adding it to one does *)
          if not l.conforms then
            Database.check_tuple r.s.tab.Tableau.schema l.atom.Atom.rel (tuple_of_row row);
          Kernel.Overlay.push ov row;
          let violated =
            if r.delta_ok then Checker.check_row r.watches.(lv) row
            else Checker.check_frame r.frame
          in
          match violated with
          | None ->
            let stop = dfs r (lv + 1) in
            Kernel.Overlay.pop ov;
            stop
          | Some _ ->
            Kernel.Overlay.pop ov;
            (match r.prof with None -> () | Some sr -> Profile.prune sr lv violated);
            r.on_prune ();
            false
        end)
  end

let level_names s = Array.map (fun l -> l.atom.Atom.rel) s.levels

(* What explain shows as each level's candidate source. *)
let level_sources gens =
  Array.map
    (fun g ->
      match Checker.sources g with
      | [] -> "adom"
      | names -> String.concat "," names)
    gens

let iter ?(budget = Budget.unlimited) ?profile ?(on_prune = fun () -> ()) s ~mode visit =
  Budget.check_now budget;
  let base =
    match mode with
    | `Against_base db | `Closed_base db -> db
    | `Delta_only -> Database.empty s.tab.Tableau.schema
  in
  let frame = Checker.frame s.chk ~base in
  (* a closed base satisfies every CC by contract: no root check *)
  let delta_ok =
    match mode with
    | `Closed_base _ -> true
    | `Against_base _ | `Delta_only -> (
      match Checker.check_frame frame with
      | None -> true
      | Some _ | (exception Invalid_argument _) -> false)
  in
  let rel l = l.atom.Atom.rel in
  let run_gens = if delta_ok then s.gens else Lazy.force s.product in
  let mk prof =
    {
      s;
      budget;
      prof;
      on_prune;
      visit;
      frame;
      delta_ok;
      run_gens;
      watches =
        (if delta_ok then Array.map (fun l -> Checker.watch frame ~generated:true (rel l)) s.levels
         else [||]);
      overlays = Array.map (fun l -> Checker.overlay frame (rel l)) s.levels;
      leaf =
        {
          search = s;
          regs = Array.make (Array.length s.vars) (-1);
          rows = Array.map (fun l -> Array.make (Array.length l.args) 0) s.levels;
        };
    }
  in
  match profile with
  | None -> dfs (mk None) 0
  | Some p ->
    (* merge even when the budget exhausts mid-search: a timeout
       verdict still reports where the spent steps went *)
    let sr = Profile.start_search p ~names:(level_names s) ~sources:(level_sources run_gens) in
    Fun.protect ~finally:(fun () -> Profile.finish_search p sr) @@ fun () ->
    dfs (mk (Some sr)) 0

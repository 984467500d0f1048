open Ric_relational
open Ric_query
open Ric_constraints

module Profile = Ric_obs.Profile

let neqs_ground_ok (tab : Tableau.t) mu =
  List.for_all
    (fun (s, t) ->
      match Valuation.term_value mu s, Valuation.term_value mu t with
      | Some a, Some b -> not (Value.equal a b)
      | _ -> true)
    tab.Tableau.neqs

(* Remove exactly one occurrence by physical identity: a tableau may
   legitimately repeat a pattern atom, and [List.filter (!=)] would
   silently drop every shared duplicate along with the picked one. *)
let rec remove_one a = function
  | [] -> []
  | x :: rest -> if x == a then rest else x :: remove_one a rest

(* The greedy fewest-unbound-first atom pick depends only on the {e
   set} of bound variables — never on their values — and that set is
   the same in every branch at the same tree position, so the whole
   instantiation order can be computed once per search instead of once
   per node.  [plan_levels] replays the pick: at each level the atom
   with the fewest unbound variables is selected (earliest atom wins
   ties, matching the old per-node fold), its unbound variables and
   their candidate lists are recorded, and its variables are marked
   bound.  Every branch then instantiates atoms in exactly this order. *)
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
  let bound = Hashtbl.create 16 in
  let unbound a =
    List.filter (fun x -> not (Hashtbl.mem bound x)) (Atom.vars a)
  in
  let rec go acc atoms =
    match atoms with
    | [] -> List.rev acc
    | _ ->
      let best =
        List.fold_left
          (fun best a ->
            let n = List.length (unbound a) in
            match best with
            | Some (_, m) when m <= n -> best
            | _ -> Some (a, n))
          None atoms
      in
      (match best with
       | None -> List.rev acc
       | Some (a, _) ->
         let vars = unbound a in
         let doms = List.map (fun x -> (x, cands x)) vars in
         List.iter (fun x -> Hashtbl.replace bound x ()) vars;
         go ({ l_atom = a; l_doms = doms } :: acc)
           (remove_one a atoms))
  in
  Array.of_list (go [] tab.Tableau.patterns)

(* Everything a search shares across its branches. *)
type ctx = {
  c_tab : Tableau.t;
  c_chk : Checker.t;
  c_base : Database.t; (* the fixed part of every checked database *)
  c_delta_ok : bool; (* the root satisfies every CC *)
  c_levels : level array;
  c_gens : Checker.gen array; (* each level's candidates *)
}

(* The root is [base] itself: in [`Against_base D] mode the search
   checks [D ∪ μ(T)], in [`Delta_only] mode [μ(T)] alone.  Once the
   root satisfies every CC, every step only needs the delta check (the
   constraints are monotone, so only joins through the new tuple can
   break them); otherwise every step runs the full check, which fails
   (or, for an unsafe LHS, raises) exactly where a re-check from
   scratch would.  A level's candidates are drawn from its generator
   CCs once the root holds, so that only the other CCs are checked per
   step; otherwise they are the plain product, every step fully
   checked. *)
let make_ctx ~chk ~mode ~levels (tab : Tableau.t) =
  let empty = Database.empty tab.Tableau.schema in
  let base = match mode with `Against_base db -> db | `Delta_only -> empty in
  let delta_ok =
    match Checker.check chk ~base ~delta:empty with
    | None -> true
    | Some _ | (exception Invalid_argument _) -> false
  in
  let gen l =
    if delta_ok then Checker.generator chk l.l_atom l.l_doms else Checker.product l.l_doms
  in
  { c_tab = tab; c_chk = chk; c_base = base; c_delta_ok = delta_ok;
    c_levels = levels; c_gens = Array.map gen levels }

(* Enumerate every candidate instantiation of the atom at level [lv],
   charging one budget tick per candidate, and call [child] with the
   extended state for each candidate that passes the inequality and
   constraint checks.  Exists-style: stops at the first [true].
   [prof] is the search's explain recorder ([None] on the production
   path): each budget tick is mirrored as a level step, and a pruned
   branch is attributed to the constraint the check names. *)
let expand ctx ~budget ~prof ~on_prune lv mu delta child =
  let a = ctx.c_levels.(lv).l_atom in
  Checker.generate ctx.c_gens.(lv) mu (fun mu' ->
    (* profile before tick: [tick] counts the step even when it raises
       [Exhausted], so attributing first keeps a timed-out run's
       profile in exact agreement with the budget's step total *)
    (match prof with None -> () | Some sr -> Profile.step sr lv);
    Budget.tick budget;
    if not (neqs_ground_ok ctx.c_tab mu') then false
    else
      match Valuation.tuple_of_terms mu' a.Atom.args with
      | None -> assert false
      | Some tuple ->
        let delta' = Database.add_tuple delta a.Atom.rel tuple in
        let violated =
          if ctx.c_delta_ok then
            Checker.check_generated ctx.c_chk ~base:ctx.c_base ~delta:delta'
              ~rel:a.Atom.rel ~tuple
          else Checker.check ctx.c_chk ~base:ctx.c_base ~delta:delta'
        in
        (match violated with
         | None -> child mu' delta'
         | Some _ ->
           (match prof with
            | None -> ()
            | Some sr -> Profile.prune sr lv violated);
           on_prune ();
           false))

let rec dfs ctx ~budget ~prof ~on_prune ~visit lv mu delta =
  if lv = Array.length ctx.c_levels then
    if neqs_ground_ok ctx.c_tab mu then visit mu delta else false
  else
    expand ctx ~budget ~prof ~on_prune lv mu delta
      (dfs ctx ~budget ~prof ~on_prune ~visit (lv + 1))

let level_names ctx = Array.map (fun l -> l.l_atom.Atom.rel) ctx.c_levels

(* What explain shows as each level's candidate source. *)
let level_sources ctx =
  Array.map
    (fun g ->
      match Checker.sources g with
      | [] -> "adom"
      | names -> String.concat "," names)
    ctx.c_gens

let iter_valid ?(budget = Budget.unlimited) ?profile ~checker ~mode ~adom
    ?(on_prune = fun () -> ()) (tab : Tableau.t) visit =
  Budget.check_now budget;
  let levels = plan_levels ~adom tab in
  let ctx = make_ctx ~chk:checker ~mode ~levels tab in
  let root = Database.empty tab.Tableau.schema in
  match profile with
  | None -> dfs ctx ~budget ~prof:None ~on_prune ~visit 0 Valuation.empty root
  | Some p ->
    (* merge even when the budget exhausts mid-search: a timeout
       verdict still reports where the spent steps went *)
    let sr =
      Profile.start_search p ~names:(level_names ctx) ~sources:(level_sources ctx)
    in
    Fun.protect ~finally:(fun () -> Profile.finish_search p sr) @@ fun () ->
    dfs ctx ~budget ~prof:(Some sr) ~on_prune ~visit 0 Valuation.empty root

open Ric_relational
module SMap = Map.Make (String)
module SSet = Set.Make (String)

type literal =
  | Pos of Atom.t
  | Eq of Term.t * Term.t
  | Neq of Term.t * Term.t

type rule = {
  rule_head : Atom.t;
  rule_body : literal list;
}

type program = {
  rules : rule list;
  output : string;
}

(* A rule in evaluation form: equalities eliminated. *)
type norm_rule = {
  nr_head : Term.t list;
  nr_pred : string;
  nr_atoms : Atom.t list;
  nr_neqs : (Term.t * Term.t) list;
}

let normalize_rule r : norm_rule option =
  let cq =
    Cq.make
      ~eqs:
        (List.filter_map
           (function
             | Eq (s, t) -> Some (s, t)
             | _ -> None)
           r.rule_body)
      ~neqs:
        (List.filter_map
           (function
             | Neq (s, t) -> Some (s, t)
             | _ -> None)
           r.rule_body)
      ~head:r.rule_head.Atom.args
      (List.filter_map
         (function
           | Pos a -> Some a
           | _ -> None)
         r.rule_body)
  in
  match Cq.normalize cq with
  | None -> None
  | Some n ->
    Some
      {
        nr_head = n.Cq.n_head;
        nr_pred = r.rule_head.Atom.rel;
        nr_atoms = n.Cq.n_atoms;
        nr_neqs = n.Cq.n_neqs;
      }

let check_safe (nr : norm_rule) =
  let avars = SSet.of_list (List.concat_map Atom.vars nr.nr_atoms) in
  let covered = function
    | Term.Const _ -> true
    | Term.Var x -> SSet.mem x avars
  in
  if
    not
      (List.for_all covered nr.nr_head
      && List.for_all (fun (s, t) -> covered s && covered t) nr.nr_neqs)
  then invalid_arg "Datalog.rule: unsafe rule"

let rule head body =
  let r = { rule_head = head; rule_body = body } in
  (match normalize_rule r with
   | Some nr -> check_safe nr
   | None -> () (* contradictory rule never fires; harmless *));
  r

let program rules ~output =
  let arities : int SMap.t ref = ref SMap.empty in
  let note (a : Atom.t) =
    match SMap.find_opt a.rel !arities with
    | None -> arities := SMap.add a.rel (Atom.arity a) !arities
    | Some k ->
      if k <> Atom.arity a then
        invalid_arg (Printf.sprintf "Datalog.program: %S used with arities %d and %d" a.rel k (Atom.arity a))
  in
  List.iter
    (fun r ->
      note r.rule_head;
      List.iter
        (function
          | Pos a -> note a
          | Eq _ | Neq _ -> ())
        r.rule_body)
    rules;
  { rules; output }

let idb p =
  List.map (fun r -> r.rule_head.Atom.rel) p.rules |> List.sort_uniq String.compare

let constants p =
  List.concat_map
    (fun r ->
      Atom.constants r.rule_head
      @ List.concat_map
          (function
            | Pos a -> Atom.constants a
            | Eq (s, t) | Neq (s, t) ->
              List.filter_map
                (function
                  | Term.Const c -> Some c
                  | Term.Var _ -> None)
                [ s; t ])
          r.rule_body)
    p.rules
  |> List.sort_uniq Value.compare

type strategy = Naive | Seminaive

let delta_name n = "\xCE\x94" ^ n (* "Δ" ^ n; IDB names never start with Δ *)

(* Fire one normalized rule under [lookup]: the derived head tuples,
   collected and then sorted into a relation once. *)
let fire lookup nr =
  let out = ref [] in
  let (_ : bool) =
    Match_engine.solve ~lookup ~neqs:nr.nr_neqs nr.nr_atoms (fun v ->
        (match Valuation.tuple_of_terms v nr.nr_head with
         | Some t -> out := t :: !out
         | None -> assert false);
        false)
  in
  Relation.of_tuples !out

let fixpoint ~strategy db p =
  let idb_set = SSet.of_list (idb p) in
  let norm_rules = List.filter_map normalize_rule p.rules in
  let edb name = try Database.relation db name with Not_found -> Relation.empty in
  let state = ref SMap.empty in
  let current name =
    if SSet.mem name idb_set then
      match SMap.find_opt name !state with
      | Some r -> r
      | None -> Relation.empty
    else edb name
  in
  let rounds = ref 0 in
  (match strategy with
   | Naive ->
     let changed = ref true in
     while !changed do
       incr rounds;
       changed := false;
       List.iter
         (fun nr ->
           let derived = fire current nr in
           let old = current nr.nr_pred in
           let merged = Relation.union old derived in
           if not (Relation.equal merged old) then begin
             changed := true;
             state := SMap.add nr.nr_pred merged !state
           end)
         norm_rules
     done
   | Seminaive ->
     (* Round 0: fire every rule on the EDB alone (IDB empty). *)
     let deltas = ref SMap.empty in
     let set_delta name r = deltas := SMap.add name r !deltas in
     List.iter
       (fun nr ->
         let derived = fire current nr in
         if not (Relation.is_empty derived) then begin
           state := SMap.add nr.nr_pred (Relation.union (current nr.nr_pred) derived) !state;
           set_delta nr.nr_pred
             (Relation.union
                (Option.value ~default:Relation.empty (SMap.find_opt nr.nr_pred !deltas))
                derived)
         end)
       norm_rules;
     rounds := 1;
     let delta_of name = Option.value ~default:Relation.empty (SMap.find_opt name !deltas) in
     let continue = ref (not (SMap.is_empty !deltas)) in
     while !continue do
       incr rounds;
       let new_deltas = ref SMap.empty in
       List.iter
         (fun nr ->
           (* For each occurrence of an IDB atom, evaluate the rule
              with that occurrence restricted to the last delta. *)
           List.iteri
             (fun i (a : Atom.t) ->
               if SSet.mem a.rel idb_set && not (Relation.is_empty (delta_of a.rel)) then begin
                 let marked =
                   List.mapi
                     (fun j (b : Atom.t) ->
                       if j = i then { b with Atom.rel = delta_name b.rel } else b)
                     nr.nr_atoms
                 in
                 let lookup name =
                   if String.length name >= 2 && name.[0] = '\xCE' && name.[1] = '\x94'
                   then delta_of (String.sub name 2 (String.length name - 2))
                   else current name
                 in
                 let derived = fire lookup { nr with nr_atoms = marked } in
                 let fresh = Relation.diff derived (current nr.nr_pred) in
                 if not (Relation.is_empty fresh) then
                   new_deltas :=
                     SMap.add nr.nr_pred
                       (Relation.union
                          (Option.value ~default:Relation.empty
                             (SMap.find_opt nr.nr_pred !new_deltas))
                          fresh)
                       !new_deltas
               end)
             nr.nr_atoms)
         norm_rules;
       SMap.iter
         (fun name fresh -> state := SMap.add name (Relation.union (current name) fresh) !state)
         !new_deltas;
       deltas := !new_deltas;
       continue := not (SMap.is_empty !new_deltas)
     done);
  (!state, !rounds)

let eval_all ?(strategy = Seminaive) db p =
  let state, _ = fixpoint ~strategy db p in
  List.map
    (fun name -> (name, Option.value ~default:Relation.empty (SMap.find_opt name state)))
    (idb p)

let eval ?(strategy = Seminaive) db p =
  if List.mem p.output (idb p) then List.assoc p.output (eval_all ~strategy db p)
  else (try Database.relation db p.output with Not_found -> Relation.empty)

let holds ?strategy db p = not (Relation.is_empty (eval ?strategy db p))

let iterations db p =
  let _, rounds = fixpoint ~strategy:Seminaive db p in
  rounds

let transitive_closure ~edge ~out =
  let x = Term.var "x" and y = Term.var "y" and z = Term.var "z" in
  program
    [
      rule (Atom.make out [ x; y ]) [ Pos (Atom.make edge [ x; y ]) ];
      rule (Atom.make out [ x; y ]) [ Pos (Atom.make edge [ x; z ]); Pos (Atom.make out [ z; y ]) ];
    ]
    ~output:out

let pp_literal ppf = function
  | Pos a -> Atom.pp ppf a
  | Eq (s, t) -> Format.fprintf ppf "%a = %a" Term.pp s Term.pp t
  | Neq (s, t) -> Format.fprintf ppf "%a ≠ %a" Term.pp s Term.pp t

let pp_rule ppf r =
  Format.fprintf ppf "%a ← %a" Atom.pp r.rule_head
    (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ") pp_literal)
    r.rule_body

let pp ppf p =
  Format.fprintf ppf "output: %s@." p.output;
  Format.pp_print_list ~pp_sep:Format.pp_print_newline pp_rule ppf p.rules

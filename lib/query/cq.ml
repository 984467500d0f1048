open Ric_relational

type t = {
  head : Term.t list;
  atoms : Atom.t list;
  eqs : (Term.t * Term.t) list;
  neqs : (Term.t * Term.t) list;
}

let make ?(eqs = []) ?(neqs = []) ~head atoms = { head; atoms; eqs; neqs }
let boolean ?(eqs = []) ?(neqs = []) atoms = { head = []; atoms; eqs; neqs }

let term_vars terms =
  List.filter_map
    (function
      | Term.Var x -> Some x
      | Term.Const _ -> None)
    terms

let vars q =
  let seen = Hashtbl.create 16 in
  let out = ref [] in
  let note x =
    if not (Hashtbl.mem seen x) then begin
      Hashtbl.add seen x ();
      out := x :: !out
    end
  in
  let note_terms ts = List.iter note (term_vars ts) in
  note_terms q.head;
  List.iter (fun (a : Atom.t) -> note_terms a.args) q.atoms;
  List.iter (fun (s, t) -> note_terms [ s; t ]) q.eqs;
  List.iter (fun (s, t) -> note_terms [ s; t ]) q.neqs;
  List.rev !out

let head_vars q = List.sort_uniq String.compare (term_vars q.head)

let constants q =
  let of_terms ts =
    List.filter_map
      (function
        | Term.Const c -> Some c
        | Term.Var _ -> None)
      ts
  in
  of_terms q.head
  @ List.concat_map (fun (a : Atom.t) -> of_terms a.args) q.atoms
  @ List.concat_map (fun (s, t) -> of_terms [ s; t ]) q.eqs
  @ List.concat_map (fun (s, t) -> of_terms [ s; t ]) q.neqs
  |> List.sort_uniq Value.compare

let arity q = List.length q.head

let rename_vars f q =
  let tm = function
    | Term.Var x -> Term.Var (f x)
    | t -> t
  in
  let pair (s, t) = (tm s, tm t) in
  {
    head = List.map tm q.head;
    atoms = List.map (fun (a : Atom.t) -> { a with args = List.map tm a.args }) q.atoms;
    eqs = List.map pair q.eqs;
    neqs = List.map pair q.neqs;
  }

let rename_apart ~prefix q =
  let table = Hashtbl.create 16 in
  let counter = ref 0 in
  let f x =
    match Hashtbl.find_opt table x with
    | Some y -> y
    | None ->
      incr counter;
      let y = Printf.sprintf "%s%d" prefix !counter in
      Hashtbl.add table x y;
      y
  in
  rename_vars f q

(* ------------------------------------------------------------------ *)
(* Equality elimination: union-find over the terms of [eqs].  Returns
   a substitution (variable -> representative term) or [None] when two
   distinct constants are equated. *)

module Subst = Map.Make (String)

let eq_classes q =
  let parent : (string, Term.t) Hashtbl.t = Hashtbl.create 16 in
  let rec repr t =
    match t with
    | Term.Const _ -> t
    | Term.Var x ->
      (match Hashtbl.find_opt parent x with
       | None -> t
       | Some p ->
         let r = repr p in
         Hashtbl.replace parent x r;
         r)
  in
  let contradiction = ref false in
  let union s t =
    let rs = repr s and rt = repr t in
    match rs, rt with
    | Term.Const a, Term.Const b -> if not (Value.equal a b) then contradiction := true
    | Term.Var x, (_ as r) | (_ as r), Term.Var x ->
      if not (Term.equal (Term.Var x) r) then Hashtbl.replace parent x r
  in
  List.iter (fun (s, t) -> union s t) q.eqs;
  if !contradiction then None
  else begin
    let subst = ref Subst.empty in
    List.iter
      (fun x ->
        let r = repr (Term.Var x) in
        if not (Term.equal r (Term.Var x)) then subst := Subst.add x r !subst)
      (vars q);
    Some !subst
  end

type norm = {
  n_head : Term.t list;
  n_atoms : Atom.t list;
  n_neqs : (Term.t * Term.t) list;
  (* neqs already filtered: trivially-true constant pairs removed *)
}

(* [normalize q] applies equality elimination; [None] when statically
   unsatisfiable (equality or inequality contradiction on ground
   terms). *)
let normalize q : norm option =
  match eq_classes q with
  | None -> None
  | Some subst ->
    let tm = function
      | Term.Var x as t -> (match Subst.find_opt x subst with Some r -> r | None -> t)
      | t -> t
    in
    (* Preserve atom identity when the substitution leaves the argument
       list untouched, so physically-shared duplicate atoms stay shared
       through normalization. *)
    let atoms =
      List.map
        (fun (a : Atom.t) ->
          let args = List.map tm a.args in
          if List.for_all2 (fun t t' -> t == t') a.args args then a
          else { a with args })
        q.atoms
    in
    let head = List.map tm q.head in
    let rec filter_neqs acc = function
      | [] -> Some (List.rev acc)
      | (s, t) :: rest ->
        let s = tm s and t = tm t in
        (match s, t with
         | Term.Const a, Term.Const b ->
           if Value.equal a b then None else filter_neqs acc rest
         | _ ->
           if Term.equal s t then None (* x ≠ x *)
           else filter_neqs ((s, t) :: acc) rest)
    in
    (match filter_neqs [] q.neqs with
     | None -> None
     | Some neqs -> Some { n_head = head; n_atoms = atoms; n_neqs = neqs })

let atom_vars atoms =
  List.concat_map Atom.vars atoms |> List.sort_uniq String.compare

let check_safe n =
  let avars = atom_vars n.n_atoms in
  let covered = function
    | Term.Const _ -> true
    | Term.Var x -> List.mem x avars
  in
  let ok =
    List.for_all covered n.n_head
    && List.for_all (fun (s, t) -> covered s && covered t) n.n_neqs
  in
  if not ok then
    invalid_arg "Cq.eval: unsafe query (head/inequality variable not in any atom)"

let eval db q =
  match normalize q with
  | None -> Relation.empty
  | Some n ->
    check_safe n;
    let lookup rel = try Database.relation db rel with Not_found -> Relation.empty in
    let out = ref [] in
    let (_ : bool) =
      Match_engine.solve ~lookup ~neqs:n.n_neqs n.n_atoms (fun v ->
          (match Valuation.tuple_of_terms v n.n_head with
           | Some t -> out := t :: !out
           | None -> assert false);
          false)
    in
    Relation.of_tuples !out

let holds db q =
  match normalize q with
  | None -> false
  | Some n ->
    check_safe n;
    let lookup rel = try Database.relation db rel with Not_found -> Relation.empty in
    Match_engine.solve ~lookup ~neqs:n.n_neqs n.n_atoms (fun _ -> true)

(* ------------------------------------------------------------------ *)
(* Effective variable domains. *)

let combine_domains d1 d2 =
  match d1, d2 with
  | Domain.Infinite, d | d, Domain.Infinite -> d
  | Domain.Finite a, Domain.Finite b ->
    Domain.Finite (List.filter (fun v -> List.exists (Value.equal v) b) a)

let var_domains sch q =
  let table : (string, Domain.t) Hashtbl.t = Hashtbl.create 16 in
  let note x d =
    match Hashtbl.find_opt table x with
    | None -> Hashtbl.replace table x d
    | Some d0 -> Hashtbl.replace table x (combine_domains d0 d)
  in
  List.iter
    (fun (a : Atom.t) ->
      match Schema.find sch a.rel with
      | rs ->
        List.iteri
          (fun i t ->
            match t with
            | Term.Var x -> note x (Schema.attr_domain rs i)
            | Term.Const _ -> ())
          a.args
      | exception Not_found -> ())
    q.atoms;
  List.map
    (fun x ->
      match Hashtbl.find_opt table x with
      | Some d -> (x, d)
      | None -> (x, Domain.Infinite))
    (vars q)

(* ------------------------------------------------------------------ *)
(* Exact satisfiability: backtrack over finite-domain variables, give
   infinite-domain variables fresh pairwise-distinct values. *)

let satisfiable sch q =
  match normalize q with
  | None -> false
  | Some n ->
    let q' = { eqs = []; head = n.n_head; atoms = n.n_atoms; neqs = n.n_neqs } in
    let doms = var_domains sch q' in
    (* Fresh values: integers strictly larger than any integer constant
       mentioned anywhere, so they are distinct from all constants. *)
    let max_const =
      List.fold_left
        (fun m v ->
          match v with
          | Value.Int n -> max m n
          | Value.Str _ -> m)
        0 (constants q')
    in
    let fresh = ref max_const in
    let next_fresh () =
      incr fresh;
      Value.Int !fresh
    in
    let finite, infinite =
      List.partition (fun (_, d) -> Domain.is_finite d) doms
    in
    let candidate_lists =
      List.map
        (fun (x, d) ->
          match Domain.values d with
          | Some vs -> (x, vs)
          | None -> assert false)
        finite
    in
    Valuation.enumerate_iter candidate_lists (fun v ->
        let v =
          List.fold_left (fun v (x, _) -> Valuation.add x (next_fresh ()) v) v infinite
        in
        let neq_ok (s, t) =
          match Valuation.term_value v s, Valuation.term_value v t with
          | Some a, Some b -> not (Value.equal a b)
          | _ -> true
        in
        List.for_all neq_ok n.n_neqs)

(* ------------------------------------------------------------------ *)
(* Chandra–Merlin containment for inequality-free CQs: q1 ⊆ q2 iff the
   head of q2 maps onto the head of q1 under some homomorphism from
   q2's canonical instance evaluation on q1's frozen body. *)

let frozen_schema sch q =
  (* Relax finite domains to infinite so frozen constants conform. *)
  let rels =
    List.sort_uniq String.compare (List.map (fun (a : Atom.t) -> a.Atom.rel) q.atoms)
  in
  Schema.make
    (List.map
       (fun name ->
         let rs = Schema.find sch name in
         Schema.relation name
           (List.map (fun (a : Schema.attribute) -> Schema.attribute a.attr_name) rs.attrs))
       rels)

let freeze sch q =
  (* canonical database: each variable becomes a distinct fresh
     constant *)
  match normalize q with
  | None -> None
  | Some n ->
    let table = Hashtbl.create 16 in
    let counter = ref 0 in
    let freeze_term = function
      | Term.Const c -> c
      | Term.Var x ->
        (match Hashtbl.find_opt table x with
         | Some c -> c
         | None ->
           incr counter;
           let c = Value.Str (Printf.sprintf "_frz%d" !counter) in
           Hashtbl.add table x c;
           c)
    in
    let db =
      List.fold_left
        (fun db (a : Atom.t) ->
          let tuple = Tuple.make (List.map freeze_term a.args) in
          let rel = try Database.relation db a.rel with Not_found -> Relation.empty in
          Database.set_relation db a.rel (Relation.add tuple rel))
        (Database.empty (frozen_schema sch q))
        n.n_atoms
    in
    let head_tuple = Tuple.make (List.map freeze_term n.n_head) in
    Some (db, head_tuple)

let contained_in sch q1 q2 =
  if q1.neqs <> [] || q2.neqs <> [] then
    invalid_arg "Cq.contained_in: only inequality-free CQs are supported";
  if List.length q1.head <> List.length q2.head then false
  else
    match freeze sch q1 with
    | None -> true (* q1 unsatisfiable: contained in anything *)
    | Some (frozen, head_tuple) -> Relation.mem head_tuple (eval frozen q2)

let pp_pair op ppf (s, t) = Format.fprintf ppf "%a %s %a" Term.pp s op Term.pp t

let pp ppf q =
  let items =
    List.map (fun a ppf -> Atom.pp ppf a) q.atoms
    @ List.map (fun e ppf -> pp_pair "=" ppf e) q.eqs
    @ List.map (fun e ppf -> pp_pair "≠" ppf e) q.neqs
  in
  Format.fprintf ppf "(%a) ← %a"
    (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ") Term.pp)
    q.head
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.fprintf ppf " ∧ ")
       (fun ppf f -> f ppf))
    items

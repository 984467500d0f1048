open Ric_relational

type formula =
  | True
  | Atom of Atom.t
  | Eq of Term.t * Term.t
  | And of formula * formula
  | Or of formula * formula
  | Not of formula
  | Exists of string list * formula
  | Forall of string list * formula

type t = {
  head : Term.t list;
  body : formula;
}

module SSet = Set.Make (String)

let term_vars = function
  | Term.Var x -> SSet.singleton x
  | Term.Const _ -> SSet.empty

let rec fv = function
  | True -> SSet.empty
  | Atom a -> List.fold_left (fun s t -> SSet.union s (term_vars t)) SSet.empty a.Atom.args
  | Eq (s, t) -> SSet.union (term_vars s) (term_vars t)
  | And (f, g) | Or (f, g) -> SSet.union (fv f) (fv g)
  | Not f -> fv f
  | Exists (xs, f) | Forall (xs, f) -> SSet.diff (fv f) (SSet.of_list xs)

let free_vars f = SSet.elements (fv f)

let make ~head body =
  let head_vars =
    List.filter_map
      (function
        | Term.Var x -> Some x
        | Term.Const _ -> None)
      head
    |> SSet.of_list
  in
  let free = fv body in
  if not (SSet.subset free head_vars) then
    invalid_arg
      (Printf.sprintf "Fo.make: free variable %S is not a head variable"
         (SSet.choose (SSet.diff free head_vars)));
  { head; body }

let boolean body = make ~head:[] body

let neq s t = Not (Eq (s, t))

let conj = function
  | [] -> True
  | f :: rest -> List.fold_left (fun acc g -> And (acc, g)) f rest

let disj = function
  | [] -> Not True
  | f :: rest -> List.fold_left (fun acc g -> Or (acc, g)) f rest

let of_cq (q : Cq.t) =
  let lits =
    List.map (fun a -> Atom a) q.Cq.atoms
    @ List.map (fun (s, t) -> Eq (s, t)) q.Cq.eqs
    @ List.map (fun (s, t) -> neq s t) q.Cq.neqs
  in
  let head_vars =
    List.filter_map
      (function
        | Term.Var x -> Some x
        | Term.Const _ -> None)
      q.Cq.head
  in
  let body = conj lits in
  let bound = SSet.elements (SSet.diff (fv body) (SSet.of_list head_vars)) in
  make ~head:q.Cq.head (if bound = [] then body else Exists (bound, body))

let rec efo_formula : Efo.formula -> formula = function
  | Efo.Atom a -> Atom a
  | Efo.Eq (s, t) -> Eq (s, t)
  | Efo.Neq (s, t) -> neq s t
  | Efo.And (f, g) -> And (efo_formula f, efo_formula g)
  | Efo.Or (f, g) -> Or (efo_formula f, efo_formula g)
  | Efo.Exists (xs, f) -> Exists (xs, efo_formula f)

let of_efo (q : Efo.t) =
  let body = efo_formula q.Efo.body in
  let head_vars =
    List.filter_map
      (function
        | Term.Var x -> Some x
        | Term.Const _ -> None)
      q.Efo.head
  in
  let bound = SSet.elements (SSet.diff (fv body) (SSet.of_list head_vars)) in
  make ~head:q.Efo.head (if bound = [] then body else Exists (bound, body))

let rec formula_constants = function
  | True -> []
  | Atom a -> Atom.constants a
  | Eq (s, t) ->
    List.filter_map
      (function
        | Term.Const c -> Some c
        | Term.Var _ -> None)
      [ s; t ]
  | And (f, g) | Or (f, g) -> formula_constants f @ formula_constants g
  | Not f -> formula_constants f
  | Exists (_, f) | Forall (_, f) -> formula_constants f

let constants t =
  (List.filter_map
     (function
       | Term.Const c -> Some c
       | Term.Var _ -> None)
     t.head
  @ formula_constants t.body)
  |> List.sort_uniq Value.compare

let rec sat db dom env = function
  | True -> true
  | Atom a ->
    (match Valuation.tuple_of_terms env a.Atom.args with
     | Some tuple ->
       let rel = try Database.relation db a.Atom.rel with Not_found -> Relation.empty in
       Relation.mem tuple rel
     | None -> invalid_arg "Fo.eval: unbound variable in atom (non-closed formula)")
  | Eq (s, t) ->
    (match Valuation.term_value env s, Valuation.term_value env t with
     | Some a, Some b -> Value.equal a b
     | _ -> invalid_arg "Fo.eval: unbound variable in equality")
  | And (f, g) -> sat db dom env f && sat db dom env g
  | Or (f, g) -> sat db dom env f || sat db dom env g
  | Not f -> not (sat db dom env f)
  | Exists (xs, f) ->
    let rec go env = function
      | [] -> sat db dom env f
      | x :: rest -> List.exists (fun c -> go (Valuation.add x c env) rest) dom
    in
    go env xs
  | Forall (xs, f) ->
    let rec go env = function
      | [] -> sat db dom env f
      | x :: rest -> List.for_all (fun c -> go (Valuation.add x c env) rest) dom
    in
    go env xs

let active_domain ?(extra = []) db t =
  List.sort_uniq Value.compare (Database.adom db @ constants t @ extra)

let eval ?extra db t =
  let dom = active_domain ?extra db t in
  let dom = if dom = [] then [ Value.Int 0 ] else dom in
  let head_vars =
    List.filter_map
      (function
        | Term.Var x -> Some x
        | Term.Const _ -> None)
      t.head
    |> List.sort_uniq String.compare
  in
  let out = ref [] in
  let (_ : bool) =
    Valuation.enumerate_iter
      (List.map (fun x -> (x, dom)) head_vars)
      (fun env ->
        if sat db dom env t.body then begin
          (match Valuation.tuple_of_terms env t.head with
           | Some tuple -> out := tuple :: !out
           | None -> assert false)
        end;
        false)
  in
  Relation.of_tuples !out

let holds ?extra db t = not (Relation.is_empty (eval ?extra db t))

let rec pp_formula ppf = function
  | True -> Format.fprintf ppf "⊤"
  | Atom a -> Atom.pp ppf a
  | Eq (s, t) -> Format.fprintf ppf "%a = %a" Term.pp s Term.pp t
  | Not (Eq (s, t)) -> Format.fprintf ppf "%a ≠ %a" Term.pp s Term.pp t
  | And (f, g) -> Format.fprintf ppf "(%a ∧ %a)" pp_formula f pp_formula g
  | Or (f, g) -> Format.fprintf ppf "(%a ∨ %a)" pp_formula f pp_formula g
  | Not f -> Format.fprintf ppf "¬%a" pp_formula f
  | Exists (xs, f) ->
    Format.fprintf ppf "∃%s (%a)" (String.concat "," xs) pp_formula f
  | Forall (xs, f) ->
    Format.fprintf ppf "∀%s (%a)" (String.concat "," xs) pp_formula f

let pp ppf t =
  Format.fprintf ppf "(%a) ← %a"
    (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ") Term.pp)
    t.head pp_formula t.body

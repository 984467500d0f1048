open Ric_relational

(* The default path compiles the body into a slot-addressed plan and
   runs it over the relations' own column indexes (see [Kernel]); the [naive]
   path below is the original interpreted engine — first-atom order,
   full scans, string-map valuations — kept verbatim as the
   differential-testing oracle and ablation baseline. *)

(* A neq (s, t) is checked as soon as both sides are ground under the
   current valuation; [pending] tracks the ones not yet checkable. *)
let neq_ok v (s, t) =
  match Valuation.term_value v s, Valuation.term_value v t with
  | Some a, Some b -> if Value.equal a b then `Violated else `Ok
  | _ -> `Pending

(* Try to extend [v] so that [a] maps onto [tuple]. *)
let unify v (a : Atom.t) tuple =
  if Tuple.arity tuple <> Atom.arity a then None
  else
    let rec go v i = function
      | [] -> Some v
      | t :: rest ->
        let c = Tuple.get tuple i in
        (match t with
         | Term.Const k -> if Value.equal k c then go v (i + 1) rest else None
         | Term.Var x ->
           (match Valuation.find x v with
            | Some k -> if Value.equal k c then go v (i + 1) rest else None
            | None -> go (Valuation.add x c v) (i + 1) rest))
    in
    go v 0 a.Atom.args

let naive_solve ~lookup ~neqs ~init atoms visit =
  let check_neqs v pending =
    let rec go ok acc = function
      | [] -> if ok then Some acc else None
      | neq :: rest ->
        (match neq_ok v neq with
         | `Violated -> None
         | `Ok -> go ok acc rest
         | `Pending -> go ok (neq :: acc) rest)
    in
    go true [] pending
  in
  let rec go v pending atoms =
    match check_neqs v pending with
    | None -> false
    | Some pending ->
      (match atoms with
       | [] -> visit v
       | a :: rest ->
         Relation.exists
           (fun tuple ->
             match unify v a tuple with
             | Some v' -> go v' pending rest
             | None -> false)
           (lookup a.Atom.rel))
  in
  go init neqs atoms

let solve ~lookup ?(neqs = []) ?(init = Valuation.empty) ?(naive = false) atoms visit =
  if naive then naive_solve ~lookup ~neqs ~init atoms visit
  else begin
    let plan = Kernel.plan_for atoms neqs in
    let b = Kernel.bind plan ~lookup in
    let pin, row = Kernel.pin_of_valuation plan init in
    Kernel.run b ~pin ~row (fun regs -> visit (Kernel.valuation_of plan ~init regs))
  end

let all ~lookup ?(neqs = []) ?(init = Valuation.empty) atoms =
  let out = ref [] in
  let (_ : bool) =
    solve ~lookup ~neqs ~init atoms (fun v ->
        out := v :: !out;
        false)
  in
  List.rev !out

open Ric_relational
open Ric_query
open Ric_constraints
module Budget = Ric_complete.Budget

type scored = {
  candidate : Enumerate.candidate;
  support : int;
  confidence : float;
}

let cq_of (c : Enumerate.candidate) = Cq.make ~neqs:c.neqs ~head:c.head c.atoms

let cc_of ?name (c : Enumerate.candidate) =
  Containment.make ?name (Lang.Q_cq (cq_of c)) c.rhs

type ctx = {
  master : Database.t;
  rowsets : (string, Kernel.Rowset.t) Hashtbl.t;
}

let ctx ~master () =
  { master; rowsets = Hashtbl.create 16 }

let rowset ctx (rhs : Projection.t) =
  let key = Format.asprintf "%a" Projection.pp rhs in
  match Hashtbl.find_opt ctx.rowsets key with
  | Some rs -> rs
  | None ->
    let rs = Kernel.Rowset.of_relation (Projection.eval ctx.master rhs) in
    Hashtbl.add ctx.rowsets key rs;
    rs

let bind ~db plan =
  Kernel.bind plan ~lookup:(fun rel ->
      try Database.relation db rel with Not_found -> Relation.empty)

(* Distinct interned head rows of [atoms, neqs] over [db]. *)
let distinct_heads ~budget ~db ~atoms ~neqs ~head =
  let plan = Kernel.compile atoms neqs in
  let enc = Kernel.encode_terms plan head in
  let ids = Array.make (Array.length enc) 0 in
  let rows : (int array, unit) Hashtbl.t = Hashtbl.create 64 in
  ignore
    (Kernel.run (bind ~db plan) ~pin:[||] ~row:[||] (fun regs ->
         Budget.tick budget;
         if Kernel.ground enc regs ids && not (Hashtbl.mem rows ids) then
           Hashtbl.add rows (Array.copy ids) ();
         false));
  rows

let has_match ~budget ~db ~atoms ~neqs =
  let plan = Kernel.compile atoms neqs in
  Kernel.run (bind ~db plan) ~pin:[||] ~row:[||] (fun _ ->
      Budget.tick budget;
      true)

let score ?(budget = Budget.unlimited) ctx ~db (c : Enumerate.candidate) =
  match c.rhs with
  | Projection.Empty ->
    let violated = has_match ~budget ~db ~atoms:c.atoms ~neqs:c.neqs in
    let support =
      match c.support_hint with
      | Some n -> n
      | None ->
        Hashtbl.length
          (distinct_heads ~budget ~db ~atoms:c.atoms ~neqs:[] ~head:c.head)
    in
    { candidate = c; support; confidence = (if violated then 0.0 else 1.0) }
  | Projection.Proj _ ->
    let rows =
      distinct_heads ~budget ~db ~atoms:c.atoms ~neqs:c.neqs ~head:c.head
    in
    let support = Hashtbl.length rows in
    if support = 0 then { candidate = c; support; confidence = 0.0 }
    else begin
      let rs = rowset ctx c.rhs in
      let covered =
        Hashtbl.fold
          (fun ids () acc -> if Kernel.Rowset.mem rs ids then acc + 1 else acc)
          rows 0
      in
      {
        candidate = c;
        support;
        confidence = float_of_int covered /. float_of_int support;
      }
    end

let naive_score ~db ~master (c : Enumerate.candidate) =
  match c.rhs with
  | Projection.Empty ->
    let violated = Cq.holds db (Cq.boolean ~neqs:c.neqs c.atoms) in
    let support =
      match c.support_hint with
      | Some n -> n
      | None -> Relation.cardinal (Cq.eval db (Cq.make ~head:c.head c.atoms))
    in
    { candidate = c; support; confidence = (if violated then 0.0 else 1.0) }
  | Projection.Proj _ ->
    let q = Cq.eval db (cq_of c) in
    let support = Relation.cardinal q in
    if support = 0 then { candidate = c; support; confidence = 0.0 }
    else begin
      let p = Projection.eval master c.rhs in
      let covered = Relation.cardinal (Relation.inter q p) in
      {
        candidate = c;
        support;
        confidence = float_of_int covered /. float_of_int support;
      }
    end

open Ric_relational
open Ric_query
open Ric_constraints
module Budget = Ric_complete.Budget

type config = {
  max_atoms : int;
  max_width : int;
  max_consts : int;
  closure_max : int;
  cap_max : int;
}

let default =
  { max_atoms = 3; max_width = 2; max_consts = 2; closure_max = 3; cap_max = 2 }

type candidate = {
  family : string;
  head : Term.t list;
  atoms : Atom.t list;
  neqs : (Term.t * Term.t) list;
  rhs : Projection.t;
  key : string;
  support_hint : int option;
}

type result = {
  cands : candidate list;
  enumerated : int;
  duplicates : int;
  exhausted : Budget.reason option;
}

(* ------------------------------------------------------------------ *)
(* Canonicalisation *)

let rec permutations = function
  | [] -> [ [] ]
  | l ->
    List.concat_map
      (fun x ->
        let rest = List.filter (fun y -> y != x) l in
        List.map (fun p -> x :: p) (permutations rest))
      l

(* [rhs] is the RHS already printed: it is the same in every order *)
let render ~head ~neqs ~rhs atom_order =
  let names = Hashtbl.create 8 in
  let next = ref 0 in
  let name x =
    match Hashtbl.find_opt names x with
    | Some v -> v
    | None ->
      let v = "v" ^ string_of_int !next in
      incr next;
      Hashtbl.add names x v;
      v
  in
  let term = function
    | Term.Var x -> name x
    | Term.Const (Value.Int n) -> string_of_int n
    | Term.Const (Value.Str s) -> Printf.sprintf "%S" s
  in
  let atom (a : Atom.t) =
    a.Atom.rel ^ "(" ^ String.concat "," (List.map term a.Atom.args) ^ ")"
  in
  let atoms_s = List.map atom atom_order in
  let head_s = List.map term head in
  let neq (s, u) =
    let a = term s and b = term u in
    if a <= b then a ^ "!=" ^ b else b ^ "!=" ^ a
  in
  let neqs_s = List.sort String.compare (List.map neq neqs) in
  String.concat "," atoms_s ^ "|" ^ String.concat "," head_s ^ "|"
  ^ String.concat "," neqs_s ^ "|" ^ rhs

let canonical_key ~head ~atoms ~neqs ~rhs =
  let rhs = Format.asprintf "%a" Projection.pp rhs in
  let orders = if List.length atoms <= 4 then permutations atoms else [ atoms ] in
  match List.map (render ~head ~neqs ~rhs) orders with
  | [] -> render ~head ~neqs ~rhs atoms
  | r :: rest -> List.fold_left min r rest

(* ------------------------------------------------------------------ *)
(* Data profile: distinct values per column of each db relation *)

module Vset = Set.Make (Value)

let relation_of db name =
  try Database.relation db name with Not_found -> Relation.empty

let profile db (rs : Schema.relation_schema) =
  let k = Schema.arity rs in
  let sets = Array.make k Vset.empty in
  Relation.iter
    (fun tu ->
      for i = 0 to k - 1 do
        sets.(i) <- Vset.add (Tuple.get tu i) sets.(i)
      done)
    (relation_of db rs.Schema.rel_name);
  Array.map Vset.elements sets

(* ------------------------------------------------------------------ *)
(* Combinatorics *)

let rec subsets_of_size w = function
  | _ when w = 0 -> [ [] ]
  | [] -> []
  | x :: rest ->
    List.map (fun s -> x :: s) (subsets_of_size (w - 1) rest)
    @ subsets_of_size w rest

let rec arrangements w lst =
  if w = 0 then [ [] ]
  else
    List.concat_map
      (fun x ->
        List.map
          (fun s -> x :: s)
          (arrangements (w - 1) (List.filter (fun y -> y <> x) lst)))
      lst

let xvar i = Term.var ("x" ^ string_of_int i)
let yvar i = Term.var ("y" ^ string_of_int i)

(* ------------------------------------------------------------------ *)

let generate ?(config = default) ?(budget = Budget.unlimited) ~db_schema
    ~master_schema ~db () =
  let seen : (string, unit) Hashtbl.t = Hashtbl.create 256 in
  let out = ref [] in
  let enumerated = ref 0 and duplicates = ref 0 in
  let emit ~family ?support_hint ~head ~atoms ~neqs ~rhs () =
    Budget.tick budget;
    incr enumerated;
    let key = canonical_key ~head ~atoms ~neqs ~rhs in
    if Hashtbl.mem seen key then incr duplicates
    else begin
      Hashtbl.add seen key ();
      out := { family; head; atoms; neqs; rhs; key; support_hint } :: !out
    end
  in
  let db_rels = Schema.relations db_schema in
  let profiles =
    List.map (fun rs -> (rs, profile db rs)) db_rels
  in
  (* master projections of each width, shared by the inclusion families *)
  let targets =
    Array.init (config.max_width + 1) (fun w ->
        if w = 0 then []
        else
          List.concat_map
            (fun (m : Schema.relation_schema) ->
              let cols = List.init (Schema.arity m) Fun.id in
              List.map
                (fun arr -> Projection.proj m.Schema.rel_name arr)
                (arrangements w cols))
            (Schema.relations master_schema))
  in
  let inclusion_family () =
    List.iter
      (fun ((rs : Schema.relation_schema), prof) ->
        let k = Schema.arity rs in
        let base = List.init k xvar in
        let cols = List.init k Fun.id in
        let selections =
          None
          :: List.concat_map
               (fun j ->
                 let d = prof.(j) in
                 if d <> [] && List.length d <= config.max_consts then
                   List.map (fun v -> Some (j, v)) d
                 else [])
               cols
        in
        List.iter
          (fun sel ->
            let args, var_cols =
              match sel with
              | None -> (base, cols)
              | Some (j, v) ->
                ( List.mapi (fun i t -> if i = j then Term.const v else t) base,
                  List.filter (fun i -> i <> j) cols )
            in
            let atom = Atom.make rs.Schema.rel_name args in
            for w = 1 to min config.max_width (List.length var_cols) do
              List.iter
                (fun hcols ->
                  let head = List.map xvar hcols in
                  List.iter
                    (fun rhs ->
                      emit ~family:"inclusion" ~head ~atoms:[ atom ] ~neqs:[]
                        ~rhs ())
                    targets.(w))
                (subsets_of_size w var_cols)
            done)
          selections)
      profiles
  in
  let join_family () =
    if config.max_atoms < 2 then ()
    else
      let sites =
        List.concat_map
          (fun (rs : Schema.relation_schema) ->
            List.init (Schema.arity rs) (fun i -> (rs, i)))
          db_rels
      in
      List.iter
        (fun ((r1 : Schema.relation_schema), i1) ->
          List.iter
            (fun ((r2 : Schema.relation_schema), i2) ->
              (* ordered sites: each unordered pair once; joining a
                 column to itself adds nothing over the single atom *)
              if
                (r1.Schema.rel_name, i1) < (r2.Schema.rel_name, i2)
                || (r1.Schema.rel_name = r2.Schema.rel_name && i1 < i2)
              then begin
                let k1 = Schema.arity r1 and k2 = Schema.arity r2 in
                let a1 = Atom.make r1.Schema.rel_name (List.init k1 xvar) in
                let a2 =
                  Atom.make r2.Schema.rel_name
                    (List.init k2 (fun i -> if i = i2 then xvar i1 else yvar i))
                in
                let body_vars =
                  List.init k1 xvar
                  @ List.filteri (fun i _ -> i <> i2) (List.init k2 yvar)
                in
                for w = 1 to config.max_width do
                  List.iter
                    (fun head ->
                      List.iter
                        (fun rhs ->
                          emit ~family:"join" ~head ~atoms:[ a1; a2 ] ~neqs:[]
                            ~rhs ())
                        targets.(w))
                    (subsets_of_size w body_vars)
                done
              end)
            sites)
        sites
  in
  let closure_family () =
    if config.closure_max = 0 then ()
    else
      List.iter
        (fun ((rs : Schema.relation_schema), prof) ->
          let rel = relation_of db rs.Schema.rel_name in
          let rows = Relation.cardinal rel in
          if rows > 0 then begin
            let k = Schema.arity rs in
            let atom = Atom.make rs.Schema.rel_name (List.init k xvar) in
            for j = 0 to k - 1 do
              let d = prof.(j) in
              if d <> [] && List.length d <= config.closure_max then
                emit ~family:"closure" ~support_hint:rows ~head:[ xvar j ]
                  ~atoms:[ atom ]
                  ~neqs:(List.map (fun v -> (xvar j, Term.const v)) d)
                  ~rhs:Projection.empty ()
            done
          end)
        profiles
  in
  let cap_family () =
    if config.cap_max = 0 then ()
    else
      List.iter
        (fun ((rs : Schema.relation_schema), _) ->
          let k = Schema.arity rs in
          let rel = relation_of db rs.Schema.rel_name in
          if k >= 2 && not (Relation.is_empty rel) then
            for g = 0 to k - 1 do
              for c = 0 to k - 1 do
                if c <> g then begin
                  Budget.tick budget;
                  let groups : (Value.t, Vset.t) Hashtbl.t =
                    Hashtbl.create 16
                  in
                  Relation.iter
                    (fun tu ->
                      let gv = Tuple.get tu g and cv = Tuple.get tu c in
                      let cur =
                        Option.value ~default:Vset.empty
                          (Hashtbl.find_opt groups gv)
                      in
                      Hashtbl.replace groups gv (Vset.add cv cur))
                    rel;
                  let cap =
                    Hashtbl.fold
                      (fun _ s acc -> max acc (Vset.cardinal s))
                      groups 0
                  in
                  if cap >= 1 && cap <= config.cap_max && cap + 1 <= config.max_atoms
                  then begin
                    let at_cap =
                      Hashtbl.fold
                        (fun _ s acc ->
                          if Vset.cardinal s = cap then acc + 1 else acc)
                        groups 0
                    in
                    let atoms =
                      List.init (cap + 1) (fun t ->
                          Atom.make rs.Schema.rel_name
                            (List.init k (fun i ->
                                 if i = g then Term.var "g"
                                 else if i = c then
                                   Term.var (Printf.sprintf "y%d" t)
                                 else Term.var (Printf.sprintf "z%d_%d" t i))))
                    in
                    let ys =
                      List.init (cap + 1) (fun t ->
                          Term.var (Printf.sprintf "y%d" t))
                    in
                    let rec pairs = function
                      | [] -> []
                      | y :: rest -> List.map (fun y' -> (y, y')) rest @ pairs rest
                    in
                    emit ~family:"cap" ~support_hint:at_cap
                      ~head:(Term.var "g" :: ys) ~atoms ~neqs:(pairs ys)
                      ~rhs:Projection.empty ()
                  end
                end
              done
            done)
        profiles
  in
  let exhausted = ref None in
  (try
     inclusion_family ();
     join_family ();
     closure_family ();
     cap_family ()
   with Budget.Exhausted r -> exhausted := Some r);
  {
    cands = List.rev !out;
    enumerated = !enumerated;
    duplicates = !duplicates;
    exhausted = !exhausted;
  }

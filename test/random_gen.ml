open Ric_relational
open Ric_query
open Ric_constraints

type config = {
  seed : int;
  relations : int;
  arity : int;
  tuples : int;
  domain : int;
}

let default = { seed = 42; relations = 2; arity = 3; tuples = 12; domain = 6 }

let lcg seed =
  let state = ref (seed land 0x3FFFFFFF) in
  fun bound ->
    state := ((!state * 1103515245) + 12345) land 0x3FFFFFFF;
    max 0 (!state mod bound)

let rel_name i = Printf.sprintf "R%d" i
let master_name i = Printf.sprintf "M%d" i

let relation_schema name arity =
  Schema.relation name (List.init arity (fun i -> Schema.attribute (Printf.sprintf "a%d" i)))

let schema cfg =
  Schema.make (List.init cfg.relations (fun i -> relation_schema (rel_name i) cfg.arity))

let master_schema cfg =
  Schema.make (List.init cfg.relations (fun i -> relation_schema (master_name i) cfg.arity))

let database cfg =
  let rand = lcg cfg.seed in
  List.fold_left
    (fun db i ->
      let rows =
        List.init cfg.tuples (fun _ -> List.init cfg.arity (fun _ -> rand cfg.domain))
      in
      Database.set_relation db (rel_name i) (Relation.of_int_rows rows))
    (Database.empty (schema cfg))
    (List.init cfg.relations (fun i -> i))

let inds cfg =
  let k = max 1 (cfg.arity - 1) in
  List.init cfg.relations (fun i ->
      Ind.make
        ~name:(Printf.sprintf "ind_R%d" i)
        ~rel:(rel_name i)
        ~cols:(List.init k (fun c -> c))
        (Projection.proj (master_name i) (List.init k (fun c -> c))))

let master_of cfg db =
  let rand = lcg (cfg.seed + 1) in
  List.fold_left
    (fun m i ->
      let base = Database.relation db (rel_name i) in
      let extra =
        List.init (cfg.tuples / 2) (fun _ -> List.init cfg.arity (fun _ -> rand cfg.domain))
      in
      Database.set_relation m (master_name i)
        (Relation.union base (Relation.of_int_rows extra)))
    (Database.empty (master_schema cfg))
    (List.init cfg.relations (fun i -> i))

let pad_vars prefix start n = List.init n (fun i -> Term.var (Printf.sprintf "%s%d" prefix (start + i)))

let chain_query cfg ~length =
  let counter = ref 0 in
  let atoms =
    List.init length (fun i ->
        let pads = pad_vars "p" !counter (cfg.arity - 2) in
        counter := !counter + cfg.arity - 2;
        Atom.make (rel_name 0)
          ((Term.var (Printf.sprintf "x%d" i) :: pads) @ [ Term.var (Printf.sprintf "x%d" (i + 1)) ]))
  in
  Cq.make ~head:[ Term.var "x0"; Term.var (Printf.sprintf "x%d" length) ] atoms

open Ric_relational

type t = {
  source : Schema.t;
  width : int; (* max source arity *)
  single : Schema.t;
}

let rel_name = "_U"
let pad_value = Value.Str "_pad"

let encode source =
  let rels = Schema.relations source in
  if rels = [] then invalid_arg "Single_rel.encode: empty schema";
  let width = List.fold_left (fun m r -> max m (Schema.arity r)) 0 rels in
  let attrs =
    List.init width (fun i -> Schema.attribute (Printf.sprintf "a%d" i))
    @ [ Schema.attribute "tag" ]
  in
  { source; width; single = Schema.make [ Schema.relation rel_name attrs ] }

let encode_db t db =
  Database.fold
    (fun name rel acc ->
      Relation.fold
        (fun tuple acc ->
          let vals = Tuple.values tuple in
          let padded =
            vals
            @ List.init (t.width - List.length vals) (fun _ -> pad_value)
            @ [ Value.Str name ]
          in
          Database.add_tuple acc rel_name (Tuple.make padded))
        rel acc)
    db (Database.empty t.single)

let encode_cq t (q : Cq.t) =
  let counter = ref 0 in
  let fresh () =
    incr counter;
    Term.Var (Printf.sprintf "_pad%d" !counter)
  in
  let atoms =
    List.map
      (fun (a : Atom.t) ->
        if not (Schema.mem t.source a.rel) then
          invalid_arg (Printf.sprintf "Single_rel.encode_cq: unknown relation %S" a.rel);
        let pad = List.init (t.width - Atom.arity a) (fun _ -> fresh ()) in
        Atom.make rel_name (a.args @ pad @ [ Term.str a.rel ]))
      q.Cq.atoms
  in
  { q with Cq.atoms }

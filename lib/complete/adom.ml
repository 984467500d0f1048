open Ric_relational

type t = {
  constants : Value.t list;
  fresh : Value.t list;
  all : Value.t list; (* one list, shared by every infinite-domain variable *)
}

let build ?db ?(schemas = []) ~master ~cc_constants ~query_constants ~fresh_count () =
  let finite_domain_values =
    List.concat_map
      (fun sch ->
        List.concat_map
          (fun (r : Schema.relation_schema) ->
            List.concat_map
              (fun (a : Schema.attribute) ->
                Option.value ~default:[] (Domain.values a.attr_dom))
              r.attrs)
          (Schema.relations sch))
      schemas
  in
  let base =
    (match db with
     | Some d -> Database.adom d
     | None -> [])
    @ Database.adom master @ cc_constants @ query_constants @ finite_domain_values
    |> List.sort_uniq Value.compare
  in
  (* Fresh integers above every known integer constant; strings never
     collide with the "⋆n" spelling because known strings are data. *)
  let max_int_const =
    List.fold_left
      (fun m v ->
        match v with
        | Value.Int n -> max m n
        | Value.Str _ -> m)
      0 base
  in
  let fresh = List.init fresh_count (fun i -> Value.Int (max_int_const + 1 + i)) in
  { constants = base; fresh; all = base @ fresh }

let constants t = t.constants
let fresh t = t.fresh
let all t = t.all

let candidates t = function
  | Domain.Finite vs -> vs
  | Domain.Infinite -> all t

let size t = List.length t.constants + List.length t.fresh

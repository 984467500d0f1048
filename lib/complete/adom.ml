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
  (* D's and Dm's constants come sorted from the relations' caches, and
     callers usually pass the others sorted too: merge, and sort only a
     list that is not *)
  let rec increasing = function
    | x :: (y :: _ as rest) -> Value.compare x y < 0 && increasing rest
    | _ -> true
  in
  let sorted l = if increasing l then l else List.sort_uniq Value.compare l in
  let base =
    List.fold_left
      (fun acc l -> Value.union_sorted (sorted l) acc)
      (sorted finite_domain_values)
      [
        cc_constants;
        query_constants;
        (match db with Some d -> Database.adom d | None -> []);
        Database.adom master;
      ]
  in
  (* Fresh integers above every known integer constant; strings never
     collide with the "⋆n" spelling because known strings are data.
     Integers sort before strings, so the scan stops at the first
     string. *)
  let rec max_int_const m = function
    | Value.Int n :: rest -> max_int_const (max m n) rest
    | _ -> m
  in
  let max_int_const = max_int_const 0 base in
  let fresh = List.init fresh_count (fun i -> Value.Int (max_int_const + 1 + i)) in
  { constants = base; fresh; all = base @ fresh }

let constants t = t.constants
let fresh t = t.fresh
let all t = t.all

let candidates t = function
  | Domain.Finite vs -> vs
  | Domain.Infinite -> all t

let size t = List.length t.constants + List.length t.fresh

(* Each relation's constants are cached sorted on it: a merge. *)
let referenced_master_constants ~master ccs =
  List.filter_map
    (fun cc ->
      match cc.Ric_constraints.Containment.rhs with
      | Ric_constraints.Projection.Proj { mrel; _ } -> Some mrel
      | Ric_constraints.Projection.Empty -> None)
    ccs
  |> List.sort_uniq String.compare
  |> List.fold_left
       (fun acc r ->
         match Database.relation master r with
         | rel -> Value.union_sorted (Relation.values rel) acc
         | exception Not_found -> acc)
       []

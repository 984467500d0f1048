module SMap = Map.Make (String)

type t = {
  sch : Schema.t;
  rels : Relation.t SMap.t;
}

let empty sch =
  let rels =
    List.fold_left
      (fun m (r : Schema.relation_schema) -> SMap.add r.rel_name Relation.empty m)
      SMap.empty (Schema.relations sch)
  in
  { sch; rels }

let schema d = d.sch

let unknown name = invalid_arg (Printf.sprintf "Database: unknown relation %S" name)
let relation_schema sch name = try Schema.find sch name with Not_found -> unknown name

let conform rs t =
  if not (Tuple.conforms rs t) then
    invalid_arg
      (Format.asprintf "Database: tuple %a does not conform to %a" Tuple.pp t
         Schema.pp_relation rs)

let check_conforms sch name rel = Relation.iter (conform (relation_schema sch name)) rel
let check_tuple sch name t = conform (relation_schema sch name) t

let set_relation d name rel =
  check_conforms d.sch name rel;
  { d with rels = SMap.add name rel d.rels }

let of_list sch assoc =
  List.fold_left (fun d (name, rel) -> set_relation d name rel) (empty sch) assoc

let relation d name =
  match SMap.find_opt name d.rels with
  | Some r -> r
  | None -> raise Not_found

(* Single-tuple fast path: the existing relation was validated when it
   was installed, so only the inserted tuple needs a conformance check
   — [set_relation] would rescan the whole relation per insert, an
   O(n) toll the valuation search used to pay twice per step. *)
let add_tuple d name t =
  match SMap.find_opt name d.rels with
  | Some existing ->
    check_tuple d.sch name t;
    { d with rels = SMap.add name (Relation.add t existing) d.rels }
  | None -> unknown name

(* Every pair is validated first, in order, so the first bad one
   raises what [add_tuple] would; then each relation merges its new
   tuples once — one sort and one copy per relation, not one copy per
   tuple. *)
let add_tuples d pairs =
  List.iter
    (fun (name, t) -> if SMap.mem name d.rels then check_tuple d.sch name t else unknown name)
    pairs;
  let fresh =
    List.fold_left
      (fun m (name, t) -> SMap.update name (fun ts -> Some (t :: Option.value ~default:[] ts)) m)
      SMap.empty pairs
  in
  let merge name ts rels =
    SMap.add name (Relation.union (SMap.find name rels) (Relation.of_tuples ts)) rels
  in
  { d with rels = SMap.fold merge fresh d.rels }

let contained a b =
  SMap.for_all
    (fun name rel ->
      match SMap.find_opt name b.rels with
      | Some rel' -> Relation.subset rel rel'
      | None -> Relation.is_empty rel)
    a.rels

let union a b =
  SMap.fold (fun name rel acc ->
      let merged =
        match SMap.find_opt name acc.rels with
        | Some existing -> Relation.union existing rel
        | None -> rel
      in
      set_relation acc name merged)
    b.rels a

let equal a b =
  SMap.equal Relation.equal a.rels b.rels

let total_tuples d = SMap.fold (fun _ rel acc -> acc + Relation.cardinal rel) d.rels 0

let is_empty d = total_tuples d = 0

(* each relation's constants are cached sorted: merge, don't re-sort *)
let adom d = SMap.fold (fun _ rel acc -> Value.union_sorted (Relation.values rel) acc) d.rels []

let fold f d acc = SMap.fold f d.rels acc

let pp ppf d =
  let first = ref true in
  SMap.iter
    (fun name rel ->
      if not (Relation.is_empty rel) then begin
        if not !first then Format.pp_print_newline ppf ();
        first := false;
        Format.fprintf ppf "%s = %a" name Relation.pp rel
      end)
    d.rels;
  if !first then Format.fprintf ppf "(empty database)"

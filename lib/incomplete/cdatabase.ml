open Ric_relational
open Ric_query

type t = {
  sch : Schema.t;
  tabs : Ctable.t list;
}

let make sch tabs =
  let seen = Hashtbl.create 8 in
  List.iter
    (fun (tab : Ctable.t) ->
      (match Schema.find sch tab.Ctable.rel with
       | rs ->
         if Schema.arity rs <> tab.Ctable.arity then
           invalid_arg
             (Printf.sprintf "Cdatabase.make: table %S has arity %d, schema says %d"
                tab.Ctable.rel tab.Ctable.arity (Schema.arity rs))
       | exception Not_found ->
         invalid_arg (Printf.sprintf "Cdatabase.make: unknown relation %S" tab.Ctable.rel));
      if Hashtbl.mem seen tab.Ctable.rel then
        invalid_arg (Printf.sprintf "Cdatabase.make: duplicate table for %S" tab.Ctable.rel);
      Hashtbl.add seen tab.Ctable.rel ())
    tabs;
  { sch; tabs }


let schema t = t.sch
let tables t = t.tabs

let nulls t = List.concat_map Ctable.nulls t.tabs |> List.sort_uniq String.compare

let worlds ~values t =
  let rec go acc = function
    | [] -> [ acc ]
    | (tab : Ctable.t) :: rest ->
      let options = Ctable.worlds ~values tab in
      List.concat_map
        (fun rel -> go (Database.set_relation acc tab.Ctable.rel rel) rest)
        options
  in
  let all = go (Database.empty t.sch) t.tabs in
  (* deduplicate structurally *)
  let module DS = Set.Make (struct
    type t = (string * Relation.t) list

    let compare a b =
      List.compare
        (fun (n1, r1) (n2, r2) ->
          let c = String.compare n1 n2 in
          if c <> 0 then c else Relation.compare r1 r2)
        a b
  end) in
  let key db = Database.fold (fun n r acc -> (n, r) :: acc) db [] in
  let _, out =
    List.fold_left
      (fun (seen, out) db ->
        let k = key db in
        if DS.mem k seen then (seen, out) else (DS.add k seen, db :: out))
      (DS.empty, []) all
  in
  List.rev out

(* Worlds of a c-database with correlated nulls across tables would
   have to share valuations; the table-by-table product above is only
   correct when tables do not share null names, so that is enforced. *)
let check_no_shared_nulls t =
  let all = List.concat_map Ctable.nulls t.tabs in
  let sorted = List.sort String.compare all in
  let rec dup = function
    | a :: (b :: _ as rest) -> if String.equal a b then Some a else dup rest
    | _ -> None
  in
  match dup sorted with
  | Some x ->
    invalid_arg
      (Printf.sprintf
         "Cdatabase: null %S is shared between tables; inline the tables into one \
          relation or rename"
         x)
  | None -> ()

let worlds ~values t =
  check_no_shared_nulls t;
  worlds ~values t

let certain_answers ~values t q =
  match worlds ~values t with
  | [] -> invalid_arg "Cdatabase.certain_answers: no possible world"
  | w :: rest ->
    List.fold_left (fun acc db -> Relation.inter acc (Lang.eval db q)) (Lang.eval w q) rest

let possible_answers ~values t q =
  List.fold_left
    (fun acc db -> Relation.union acc (Lang.eval db q))
    Relation.empty (worlds ~values t)

let pp ppf t =
  Format.pp_print_list ~pp_sep:Format.pp_print_newline Ctable.pp ppf t.tabs

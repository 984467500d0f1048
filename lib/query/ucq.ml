open Ric_relational

type t = Cq.t list

let make = function
  | [] -> invalid_arg "Ucq.make: empty union"
  | q :: rest as all ->
    let a = Cq.arity q in
    List.iter
      (fun q' ->
        if Cq.arity q' <> a then invalid_arg "Ucq.make: head widths differ")
      rest;
    all

let arity = function
  | q :: _ -> Cq.arity q
  | [] -> invalid_arg "Ucq.arity: empty union"

let eval db t = List.fold_left (fun acc q -> Relation.union acc (Cq.eval db q)) Relation.empty t

let holds db t = List.exists (Cq.holds db) t

let satisfiable sch t = List.exists (Cq.satisfiable sch) t

let vars t = List.concat_map Cq.vars t |> List.sort_uniq String.compare

let constants t = List.concat_map Cq.constants t |> List.sort_uniq Value.compare

let rename_apart ~prefix t =
  List.mapi (fun i q -> Cq.rename_apart ~prefix:(Printf.sprintf "%s%d_" prefix i) q) t

let contained_in sch t1 t2 =
  List.for_all (fun q1 -> List.exists (fun q2 -> Cq.contained_in sch q1 q2) t2) t1

let pp ppf t =
  Format.pp_print_list
    ~pp_sep:(fun ppf () -> Format.fprintf ppf "@ ∪ ")
    Cq.pp ppf t

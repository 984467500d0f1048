open Ric_relational

type t = {
  rel : string;
  args : Term.t list;
}

let make rel args = { rel; args }

let arity a = List.length a.args

let vars a =
  let seen = Hashtbl.create 8 in
  List.filter_map
    (function
      | Term.Var x ->
        if Hashtbl.mem seen x then None
        else begin
          Hashtbl.add seen x ();
          Some x
        end
      | Term.Const _ -> None)
    a.args

let constants a =
  List.filter_map
    (function
      | Term.Const v -> Some v
      | Term.Var _ -> None)
    a.args
  |> List.sort_uniq Value.compare

let constants_conform sch a =
  let rs = Schema.find sch a.rel in
  List.for_all Fun.id
    (List.mapi
       (fun i -> function
         | Term.Const c -> Domain.mem c (Schema.attr_domain rs i)
         | Term.Var _ -> true)
       a.args)

let apply subst a =
  let args =
    List.map
      (fun t ->
        match t with
        | Term.Var x -> (match subst x with Some t' -> t' | None -> t)
        | Term.Const _ -> t)
      a.args
  in
  { a with args }

let compare a b =
  let c = String.compare a.rel b.rel in
  if c <> 0 then c else List.compare Term.compare a.args b.args

let equal a b = compare a b = 0

let pp ppf a =
  Format.fprintf ppf "%s(%a)" a.rel
    (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ") Term.pp)
    a.args

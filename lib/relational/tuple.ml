type t = Value.t array

let make vs = Array.of_list vs
let of_ints ns = Array.of_list (List.map Value.int ns)
let of_strs ss = Array.of_list (List.map Value.str ss)

let arity = Array.length

let get t i =
  if i < 0 || i >= Array.length t then
    invalid_arg (Printf.sprintf "Tuple.get: index %d, arity %d" i (Array.length t));
  t.(i)

(* top-level, so a compare allocates no closure over [a] and [b] *)
let rec compare_from a b i n =
  if i = n then 0
  else
    let c = Value.compare a.(i) b.(i) in
    if c <> 0 then c else compare_from a b (i + 1) n

let compare a b =
  let la = Array.length a and lb = Array.length b in
  if la <> lb then Int.compare la lb else compare_from a b 0 la

let equal a b = compare a b = 0

let project cols t = Array.of_list (List.map (get t) cols)

let conforms (r : Schema.relation_schema) t =
  Array.length t = Schema.arity r
  && List.for_all2
       (fun (a : Schema.attribute) v -> Domain.mem v a.attr_dom)
       r.attrs (Array.to_list t)

let values t = Array.to_list t

let pp ppf t =
  Format.fprintf ppf "(%a)"
    (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ") Value.pp)
    (Array.to_list t)

type t =
  | Int of int
  | Str of string

let compare a b =
  match a, b with
  | Int x, Int y -> Int.compare x y
  | Str x, Str y -> String.compare x y
  | Int _, Str _ -> -1
  | Str _, Int _ -> 1

let equal a b = compare a b = 0

let union_sorted a b =
  let rec go acc a b =
    match (a, b) with
    | [], l | l, [] -> List.rev_append acc l
    | x :: a', y :: b' ->
      let c = compare x y in
      if c = 0 then go (x :: acc) a' b'
      else if c < 0 then go (x :: acc) a' b
      else go (y :: acc) a b'
  in
  go [] a b

let hash = function
  | Int n -> Hashtbl.hash (0, n)
  | Str s -> Hashtbl.hash (1, s)

let pp ppf = function
  | Int n -> Format.fprintf ppf "%d" n
  | Str s -> Format.fprintf ppf "%s" s

let pp_quoted ppf = function
  | Int n -> Format.fprintf ppf "%d" n
  | Str s -> Format.fprintf ppf "'%s'" s

let to_string v = Format.asprintf "%a" pp v

let int n = Int n
let str s = Str s

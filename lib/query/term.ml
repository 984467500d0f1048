open Ric_relational

type t =
  | Var of string
  | Const of Value.t

let var x = Var x
let const v = Const v
let int n = Const (Value.Int n)
let str s = Const (Value.Str s)

let compare a b =
  match a, b with
  | Var x, Var y -> String.compare x y
  | Const x, Const y -> Value.compare x y
  | Var _, Const _ -> -1
  | Const _, Var _ -> 1

let equal a b = compare a b = 0

let pp ppf = function
  | Var x -> Format.fprintf ppf "%s" x
  | Const v -> Value.pp_quoted ppf v

type t =
  | Seq
  | Par of int

let default_domains = 4

let name = function Seq -> "seq" | Par _ -> "par"

let to_string = function
  | Seq -> "seq"
  | Par n -> Printf.sprintf "par:%d" n

let of_string s =
  match s with
  | "seq" | "inc" -> Ok Seq
  | "par" -> Ok (Par default_domains)
  | _ ->
    (match String.index_opt s ':' with
     | Some i when String.sub s 0 i = "par" ->
       let rest = String.sub s (i + 1) (String.length s - i - 1) in
       (match int_of_string_opt rest with
        | Some n when n >= 1 -> Ok (Par n)
        | _ -> Error (Printf.sprintf "invalid domain count %S in %S" rest s))
     | _ ->
       Error
         (Printf.sprintf
            "unknown search mode %S (expected seq, par or par:N)" s))

let pp ppf m = Format.pp_print_string ppf (to_string m)

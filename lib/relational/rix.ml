type t = Relation.t

let build r = r

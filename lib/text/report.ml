open Ric_relational
open Ric_complete

let value = function
  | Value.Int n -> Json.Int n
  | Value.Str s -> Json.Str s

let tuple t = Json.List (List.map value (Tuple.values t))

let relation r = Json.List (List.map tuple (Relation.elements r))

let database d =
  Json.Obj
    (Database.fold
       (fun name rel acc ->
         if Relation.is_empty rel then acc else (name, relation rel) :: acc)
       d []
    |> List.rev)

let violation (cc, witness) =
  Json.Obj [ ("constraint", Json.Str cc); ("witness", tuple witness) ]

let not_closed_result v =
  Json.Obj
    [ ("verdict", Json.Str "not_partially_closed"); ("violation", violation v) ]

let unsupported_result msg =
  Json.Obj [ ("verdict", Json.Str "unsupported"); ("reason", Json.Str msg) ]

let rcdp_verdict = function
  | Rcdp.Complete -> Json.Obj [ ("verdict", Json.Str "complete") ]
  | Rcdp.Incomplete cex ->
    Json.Obj
      [
        ("verdict", Json.Str "incomplete");
        ("extension", database cex.Rcdp.cex_extension);
        ("new_answer", tuple cex.Rcdp.cex_answer);
        ("disjunct", Json.Int cex.Rcdp.cex_disjunct);
      ]

let rcqp_verdict = function
  | Rcqp.Nonempty { witness; reason } ->
    Json.Obj
      ([ ("verdict", Json.Str "nonempty"); ("reason", Json.Str reason) ]
      @
      match witness with
      | Some w -> [ ("witness", database w) ]
      | None -> [])
  | Rcqp.Empty { reason } ->
    Json.Obj [ ("verdict", Json.Str "empty"); ("reason", Json.Str reason) ]
  | Rcqp.Unknown { reason } ->
    Json.Obj [ ("verdict", Json.Str "unknown"); ("reason", Json.Str reason) ]

let audit_result = function
  | Guidance.Already_complete -> Json.Obj [ ("audit", Json.Str "already_complete") ]
  | Guidance.Completable { additions; completed; rounds } ->
    Json.Obj
      [
        ("audit", Json.Str "completable");
        ("collect", database additions);
        ("completed_size", Json.Int (Database.total_tuples completed));
        ("rounds", Json.Int rounds);
      ]
  | Guidance.Not_completable { reason } ->
    Json.Obj [ ("audit", Json.Str "not_completable"); ("reason", Json.Str reason) ]
  | Guidance.Inconclusive { reason } ->
    Json.Obj [ ("audit", Json.Str "inconclusive"); ("reason", Json.Str reason) ]

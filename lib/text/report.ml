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

(* ------------------------------------------------------------------ *)
(* Text renderings of a reply, for the CLI.  They read the JSON the
   service answered, so a one-shot command prints what ricd decided. *)

let field k = function
  | Json.Obj kvs -> List.assoc_opt k kvs
  | _ -> None

let str k j = match field k j with Some (Json.Str s) -> s | _ -> ""

let int k j = match field k j with Some (Json.Int n) -> n | _ -> 0

let list k j = match field k j with Some (Json.List l) -> l | _ -> []

let obj k j = match field k j with Some (Json.Obj kvs) -> kvs | _ -> []

let verdict_name result =
  match (field "verdict" result, field "audit" result) with
  | Some (Json.Str "timeout"), _ -> "timeout:" ^ str "reason" result
  | Some (Json.Str v), _ | None, Some (Json.Str v) -> v
  | _ -> "unknown"

let rejected result =
  match verdict_name result with
  | "not_partially_closed" | "unsupported" -> true
  | _ -> false

(* [value], [tuple] and [database] read back as {!Value.pp},
   {!Tuple.pp} and {!Database.pp} print them *)
let pp_value ppf = function
  | Json.Int n -> Format.fprintf ppf "%d" n
  | Json.Str s -> Format.pp_print_string ppf s
  | j -> Json.pp ppf j

let pp_tuple ppf = function
  | Json.List vs ->
    Format.fprintf ppf "(%a)"
      (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ") pp_value)
      vs
  | j -> Json.pp ppf j

let pp_database ppf = function
  | Json.Obj [] -> Format.fprintf ppf "(empty database)"
  | Json.Obj rels ->
    Format.pp_print_list ~pp_sep:Format.pp_print_newline
      (fun ppf (name, rows) ->
        Format.fprintf ppf "%s = {%a}" name
          (Format.pp_print_list
             ~pp_sep:(fun ppf () -> Format.fprintf ppf "; ")
             pp_tuple)
          (match rows with Json.List l -> l | _ -> []))
      ppf rels
  | j -> Json.pp ppf j

let pp_result ~query ppf result =
  let reason = str "reason" result in
  match verdict_name result with
  | "not_partially_closed" ->
    Format.fprintf ppf
      "input rejected: RCDP: the input database does not satisfy the containment \
       constraints"
  | "unsupported" -> Format.fprintf ppf "undecidable: %s" reason
  | "complete" -> Format.fprintf ppf "%s: complete" query
  | "incomplete" ->
    Format.fprintf ppf "%s: incomplete — admissible extension:@.%a@.new answer: %a" query
      pp_database
      (Option.value ~default:Json.Null (field "extension" result))
      pp_tuple
      (Option.value ~default:Json.Null (field "new_answer" result))
  | ("nonempty" | "empty" | "unknown") as v -> Format.fprintf ppf "%s: %s — %s" query v reason
  | "already_complete" ->
    Format.fprintf ppf "auditing %s...@.complete: the database can answer the query" query
  | "completable" ->
    Format.fprintf ppf
      "auditing %s...@.incomplete, but completable in %d round(s); collect these tuples:@.%a"
      query (int "rounds" result) pp_database
      (Option.value ~default:Json.Null (field "collect" result))
  | "not_completable" ->
    Format.fprintf ppf
      "auditing %s...@.not completable by adding data — expand the master data.@.%s" query
      reason
  | "inconclusive" -> Format.fprintf ppf "auditing %s...@.inconclusive: %s" query reason
  | v -> Format.fprintf ppf "%s: %s" query v

let pp_profile ~query ~verdict ppf profile =
  let steps = int "steps" profile and attributed = int "attributed_steps" profile in
  let pct =
    if steps = 0 then 100. else 100. *. float_of_int attributed /. float_of_int steps
  in
  Format.fprintf ppf "%s: %s@." query verdict;
  let notes = obj "notes" profile in
  List.iter
    (fun (k, v) ->
      Format.fprintf ppf "  %s=%s" k (match v with Json.Str s -> s | j -> Json.to_string j))
    notes;
  if notes <> [] then Format.fprintf ppf "@.";
  Format.fprintf ppf "steps: %d  attributed: %d (%.1f%%)@." steps attributed pct;
  (match list "levels" profile with
   | [] -> ()
   | levels ->
     Format.fprintf ppf "@.per-level fan-out@.";
     Format.fprintf ppf "  %5s %-14s %12s %12s  %s@." "level" "atom" "steps" "prunes"
       "source";
     List.iter
       (fun r ->
         Format.fprintf ppf "  %5d %-14s %12d %12d  %s@." (int "level" r) (str "atom" r)
           (int "steps" r) (int "prunes" r) (str "source" r))
       levels);
  (match list "constraints" profile with
   | [] -> ()
   | ccs ->
     Format.fprintf ppf "@.prunes by constraint@.";
     Format.fprintf ppf "  %-24s %12s@." "constraint" "prunes";
     List.iter (fun c -> Format.fprintf ppf "  %-24s %12d@." (str "name" c) (int "prunes" c)) ccs);
  match obj "counters" profile with
  | [] -> ()
  | counters ->
    Format.fprintf ppf "@.counters@.";
    List.iter
      (fun (k, n) ->
        Format.fprintf ppf "  %-24s %12d@." k (match n with Json.Int n -> n | _ -> 0))
      counters

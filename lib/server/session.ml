open Ric_relational
open Ric_constraints
module Scenario = Ric_text.Scenario

type t = {
  id : string;
  name : string option;
  scenario : Scenario.t;
  ccs_fingerprint : string;
  mutable db : Database.t;
  mutable epoch : int;
  mutable closure_violation : (string * Tuple.t) option;
}

let partially_closed s = s.closure_violation = None

let find_query s name = Scenario.find_query s.scenario name

let query_names s = List.map fst s.scenario.Scenario.queries

type registry = {
  sessions : (string, t) Hashtbl.t;
  mutable next_id : int;
}

let create () = { sessions = Hashtbl.create 16; next_id = 1 }

let fingerprint (scenario : Scenario.t) =
  let printed =
    String.concat ";"
      (List.map
         (fun (name, cc) -> name ^ "=" ^ Format.asprintf "%a" Containment.pp cc)
         scenario.Scenario.ccs)
  in
  Digest.to_hex (Digest.string printed)

(* The pair [Containment.first_violation] reports, from a checker's
   answer: [name] is the declaration-first violated CC, and the
   witness comes from that one CC.  Among CCs sharing the name, an
   earlier one is not violated (it would have been named), so the
   first that yields a witness is the checker's. *)
let violation (scenario : Scenario.t) db = function
  | None -> None
  | Some name ->
    List.find_map
      (fun (cc : Containment.t) ->
        if cc.Containment.cc_name <> name then None
        else
          Option.map
            (fun witness -> (name, witness))
            (Containment.violation ~db ~master:scenario.Scenario.master cc))
      (Scenario.all_ccs scenario)

let no_delta db = Database.empty (Database.schema db)

(* A forced [id] comes from journal replay; keep [next_id] ahead of it
   so post-recovery sessions never collide with recovered ones. *)
let open_scenario reg ?id ?name scenario =
  let id =
    match id with
    | Some id ->
      if String.length id > 1 && id.[0] = 's' then
        (match int_of_string_opt (String.sub id 1 (String.length id - 1)) with
         | Some n -> reg.next_id <- max reg.next_id (n + 1)
         | None -> ());
      id
    | None ->
      let id = Printf.sprintf "s%d" reg.next_id in
      reg.next_id <- reg.next_id + 1;
      id
  in
  let db = scenario.Scenario.db in
  let s =
    {
      id;
      name;
      scenario;
      ccs_fingerprint = fingerprint scenario;
      db;
      epoch = 0;
      closure_violation =
        (* a checker of its own, dropped after the check, not the
           scenario's: a session that is never written or decided keeps
           none.  Kept by every idle session, checkers raised a daemon's
           peak RSS by a quarter (ricbench cold_search, ~50 small
           sessions) *)
        violation scenario db
          (Checker.check
             (Checker.create ~master:scenario.Scenario.master (Scenario.all_ccs scenario))
             ~base:db ~delta:(no_delta db));
    }
  in
  Hashtbl.replace reg.sessions id s;
  s

let find reg id = Hashtbl.find_opt reg.sessions id


let count reg = Hashtbl.length reg.sessions

let list reg = Hashtbl.fold (fun _ s acc -> s :: acc) reg.sessions []

let close reg id =
  match Hashtbl.find_opt reg.sessions id with
  | Some _ ->
    Hashtbl.remove reg.sessions id;
    true
  | None -> false

exception Reject of string

(* Stage every row onto [db], one merge per relation for the whole
   write; also return the tuples that are really new, in insertion
   order. *)
let stage db batches =
  let pairs =
    List.concat_map (fun (rel, rows) -> List.map (fun row -> (rel, Tuple.make row)) rows) batches
  in
  match Database.add_tuples db pairs with
  | staged ->
    let seen = Hashtbl.create 16 in
    let fresh (rel, tuple) =
      if Relation.mem tuple (Database.relation db rel) || Hashtbl.mem seen (rel, tuple) then false
      else begin
        Hashtbl.add seen (rel, tuple) ();
        true
      end
    in
    (staged, List.filter fresh pairs)
  | exception Invalid_argument msg -> raise (Reject msg)

let insert_batches s ~batches =
  match stage s.db batches with
  | db, added ->
    (* all batches validated against the staged database before any of
       them lands: one epoch bump, one closure re-check, whatever the
       batch count — and a rejected batch leaves the session untouched *)
    s.db <- db;
    s.epoch <- s.epoch + 1;
    (* a violation is monotone: once broken, stay broken without
       re-searching.  Otherwise the old state was closed, so only joins
       through the new tuples can break V: delta-check those over the
       grown [db]: the check names the declaration-first violated CC,
       and only then is its witness computed.  The indexes this builds
       stay on [db]'s relations for the write's revalidations and this
       epoch's decides, which run over [db] too *)
    (if partially_closed s && added <> [] then
       s.closure_violation <-
         violation s.scenario db
           (Checker.check_adds (Scenario.checker s.scenario) ~base:db ~delta:(no_delta db)
              ~added));
    Ok ()
  | exception Reject msg -> Error msg

let insert s ~rel ~rows = insert_batches s ~batches:[ (rel, rows) ]

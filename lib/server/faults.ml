let src = Logs.Src.create "ricd.faults" ~doc:"fault-injection registry"

module Log = (val Logs.src_log src : Logs.LOG)

type action =
  | Delay of float
  | Drop
  | Tear of int

exception Dropped

type slot = { action : action; mutable remaining : int }

let table : (string, slot) Hashtbl.t = Hashtbl.create 8
let mutex = Mutex.create ()

let arm ?(times = 1) point action =
  Mutex.lock mutex;
  Hashtbl.replace table point { action; remaining = times };
  Mutex.unlock mutex

let reset () =
  Mutex.lock mutex;
  Hashtbl.reset table;
  Mutex.unlock mutex

(* Consume one shot at [point], if any.  [remaining < 0] means the
   fault never wears out. *)
let take point =
  Mutex.lock mutex;
  let action =
    match Hashtbl.find_opt table point with
    | Some slot when slot.remaining <> 0 ->
      if slot.remaining > 0 then slot.remaining <- slot.remaining - 1;
      Some slot.action
    | _ -> None
  in
  Mutex.unlock mutex;
  action

let fire point =
  match take point with
  | None | Some (Tear _) -> ()
  | Some (Delay s) -> Unix.sleepf s
  | Some Drop -> raise Dropped

let tear () =
  match take "tear_write" with Some (Tear n) -> Some n | Some _ | None -> None

(* Client-side injection points: a harness thread consults these just
   before writing a request frame, so the *server* experiences a
   stalled or truncated incoming frame and must defend itself. *)
let slow_read () =
  match take "slow_read" with Some (Delay s) -> Some s | Some _ | None -> None

let torn_read () =
  match take "torn_read" with Some (Tear n) -> Some n | Some _ | None -> None

let parse_action spec =
  match String.index_opt spec ':' with
  | None -> (
    match spec with
    | "drop" -> Some Drop
    | _ -> None)
  | Some i -> (
    let name = String.sub spec 0 i in
    let arg = String.sub spec (i + 1) (String.length spec - i - 1) in
    match name with
    | "delay" -> Option.map (fun s -> Delay s) (float_of_string_opt arg)
    | "tear" -> Option.map (fun n -> Tear n) (int_of_string_opt arg)
    | _ -> None)

let parse_item item =
  match String.index_opt item '=' with
  | None -> None
  | Some i ->
    let point = String.sub item 0 i in
    let rest = String.sub item (i + 1) (String.length item - i - 1) in
    let spec, times =
      match String.index_opt rest '*' with
      | None -> (rest, 1)
      | Some j ->
        let t = String.sub rest (j + 1) (String.length rest - j - 1) in
        (String.sub rest 0 j, Option.value ~default:1 (int_of_string_opt t))
    in
    Option.map (fun action -> (point, action, times)) (parse_action spec)

let init_from_env () =
  match Sys.getenv_opt "RIC_FAULTS" with
  | None -> ()
  | Some spec ->
    String.split_on_char ',' spec
    |> List.iter (fun item ->
           let item = String.trim item in
           if item <> "" then
             match parse_item item with
             | Some (point, action, times) -> arm ~times point action
             | None ->
               Log.warn (fun m -> m "ignoring malformed RIC_FAULTS item %S" item))

(* Driving ric serve: one closed-loop pass over a fresh daemon, the
   checks applied to every reply, the in-process model that reference
   verdicts are computed on, and the daemon's exported counters. *)

open Ric_service
module Json = Ric_text.Json
module Scenario = Ric_text.Scenario

let now_ns = Daemon.now_ns
let ms ns = float_of_int ns /. 1e6

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* The highest percentile that still has ten samples beyond it: the
   11th-largest sample, at percentile 100 (n - 10) / n. *)
let tail xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then (0., 0.)
  else if n <= 10 then (a.(n - 1), 100.)
  else (a.(n - 11), 100. *. float_of_int (n - 10) /. float_of_int n)

(* ------------------------------------------------------------------ *)
(* Requests and their replies *)

type cls = Decide | Read | Write | Other

type failure = Error | Shed | Timeout | Wrong | Late

type sample = {
  req : Protocol.request;
  cls : cls;
  rtt_ns : int;
  cpu_ns : int;  (** the daemon's CPU time since the previous reply arrived *)
  done_ns : int;  (** when the reply arrived *)
  elapsed_us : int;  (** the reply's own elapsed_us (decides) *)
  migrated : (string * int) list;  (** an insert reply's cache object: carried, revalidated, dropped *)
  error : string option;  (** the raw reply of a failed request *)
  key : string option;  (** the distinct decide, for reference checks *)
  label : string option;  (** its verdict label *)
  mutable fail : failure option;
}

(* Classify one reply and apply the checks that need no reference:
   ok, not shed, not timed out, at the expected epoch, not late. *)
let note ~epoch req ~rtt_ns ~cpu_ns ~done_ns raw =
  let reply = try Json.of_string raw with Json.Parse_error _ -> Json.Null in
  let s =
    {
      req;
      cls = Other;
      rtt_ns;
      cpu_ns;
      done_ns;
      elapsed_us = Check.int_field "elapsed_us" reply;
      migrated = [];
      error = None;
      key = None;
      label = None;
      fail = None;
    }
  in
  if not (Check.bool_field "ok" reply) then
    {
      s with
      error = Some raw;
      fail = Some (if Check.str_field "kind" reply = Some "overloaded" then Shed else Error);
    }
  else if Check.is_write req then begin
    incr epoch;
    let fine = Check.int_field "epoch" reply = !epoch && Check.bool_field "partially_closed" reply in
    let migrated =
      match Check.field "cache" reply with
      | Some (Json.Obj fs) -> List.filter_map (function k, Json.Int n -> Some (k, n) | _ -> None) fs
      | _ -> []
    in
    { s with cls = Write; migrated; fail = (if fine then None else Some Wrong) }
  end
  else if Check.is_decide req then begin
    let at = Check.int_field "epoch" reply in
    let label = Check.label reply in
    let fail =
      if label = "timeout" then Some Timeout
      else if at <> !epoch then Some Wrong
      else if rtt_ns > Inputs.decide_timeout_ms * 1_000_000 then Some Late
      else None
    in
    {
      s with
      cls = (if Check.bool_field "cached" reply then Read else Decide);
      key = Some (Check.key ~epoch:at req);
      label = Some label;
      fail;
    }
  end
  else s

(* ------------------------------------------------------------------ *)
(* The in-process model of the daemon's sessions, for references *)

let write_files (t : Inputs.t) =
  List.iter
    (fun (path, text) ->
      Daemon.mkdir_p (Filename.dirname path);
      Out_channel.with_open_bin path (fun oc -> output_string oc text))
    t.Inputs.files

let open_model (t : Inputs.t) =
  let reg = Session.create () in
  List.iter (fun p -> ignore (Session.open_scenario reg (Scenario.load p))) t.Inputs.opens;
  reg

let apply_write reg = function
  | Protocol.Insert { session; rel; rows } ->
    ignore (Session.insert (Option.get (Session.find reg session)) ~rel ~rows)
  | Protocol.Insert_bulk { session; batches } ->
    ignore (Session.insert_batches (Option.get (Session.find reg session)) ~batches)
  | _ -> ()

(* The states of every session at each epoch up to [max_epoch], found by
   applying the sequence's writes in order (only bulk_update writes). *)
let model_states (t : Inputs.t) ~max_epoch =
  let reg = open_model t in
  let states = Hashtbl.create 64 in
  let snap epoch =
    List.iter
      (fun s -> Hashtbl.replace states (s.Session.id, epoch) (Check.state_of s))
      (Session.list reg)
  in
  snap 0;
  let epoch = ref 0 and i = ref 0 in
  while !epoch < max_epoch do
    let r = t.Inputs.measured !i in
    if Check.is_write r then begin
      apply_write reg r;
      incr epoch;
      snap !epoch
    end;
    incr i
  done;
  states

let epoch_of_key key =
  match String.index_opt key '@' with
  | None -> 0
  | Some i -> Scanf.sscanf (String.sub key (i + 1) (String.length key - i - 1)) "%d" Fun.id

(* Reference verdicts for [reqs] (decide requests with their keys),
   computed on two domains. *)
let references (t : Inputs.t) refs keyed =
  let missing =
    List.sort_uniq compare
      (List.filter_map
         (fun (key, req) -> if Hashtbl.mem refs key then None else Some (key, req))
         keyed)
  in
  if missing <> [] then begin
    let max_epoch = List.fold_left (fun m (k, _) -> max m (epoch_of_key k)) 0 missing in
    let states = model_states t ~max_epoch in
    let jobs =
      List.map
        (fun (key, req) ->
          let session = Option.get (Check.session_of req) in
          (key, req, Hashtbl.find states (session, epoch_of_key key)))
        missing
    in
    List.iter
      (fun (key, (label, _)) -> Hashtbl.replace refs key label)
      (Check.par_map (fun (key, req, st) -> (key, Check.reference st req)) jobs)
  end

let reference_check refs samples =
  List.iter
    (fun s ->
      match (s.fail, s.key, s.label) with
      | None, Some key, Some label when Hashtbl.find refs key <> label -> s.fail <- Some Wrong
      | _ -> ())
    samples

(* ------------------------------------------------------------------ *)
(* Driving the daemon *)

type pass = {
  setup_s : float list;  (** spawn to sessions open and caches warm, per set-up *)
  start_ns : int;  (** when the measured phase began *)
  warmed : sample list;  (** the last set-up's replies *)
  measured : sample list;
  cpu_ms : float;
  steal_ms : float;  (** CPU time the hypervisor took from this host meanwhile *)
  hwm_kb : int;
  stats : Json.t * Json.t;  (** bracketing the measured phase *)
  cross : (string * string) list;
      (** nocache verdicts by key: the run's own decides, plus, for cached
          keys with none at their epoch, one sent after the loop *)
}

let stats_bytes = Json.to_string (Protocol.to_json Protocol.Stats)

(* One round trip: the request's sample, and the daemon's CPU clock when
   the reply arrived.  The CPU time is the daemon's alone: this process's
   own time while it waits includes its collector's work on the samples
   it keeps, which is the harness, not the program. *)
let round_trip d ~epoch ~daemon_cpu req bytes =
  let r0 = now_ns () in
  let raw = Daemon.rpc d bytes in
  let done_ns = now_ns () in
  let daemon1 = Daemon.cpu_ns d in
  (note ~epoch req ~rtt_ns:(done_ns - r0) ~cpu_ns:(daemon1 - daemon_cpu) ~done_ns raw, daemon1)

(* A fresh daemon, its sessions open and its caches warm.  The set-up
   time is the daemon's CPU time from its start. *)
let setup (t : Inputs.t) =
  let reqs = List.map Inputs.open_request t.Inputs.opens @ t.Inputs.warm in
  let bytes = Inputs.setup_bytes t in
  let d = Daemon.spawn () in
  let epoch = ref 0 and daemon_cpu = ref (Daemon.cpu_ns d) in
  let warmed =
    List.map2
      (fun req bytes ->
        let s, c = round_trip d ~epoch ~daemon_cpu:!daemon_cpu req bytes in
        daemon_cpu := c;
        s)
      reqs bytes
  in
  let took = float_of_int (Daemon.cpu_ns d) /. 1e9 in
  List.iter
    (fun s ->
      if s.fail <> None then begin
        Daemon.stop d;
        failwith ("set-up request failed: " ^ Option.value ~default:"wrong epoch or verdict" s.error)
      end)
    warmed;
  (d, warmed, took)

(* [setups] fresh daemons are set up and all but the last stopped; the
   last one serves the measured phase of [stop_after] requests. *)
let drive (t : Inputs.t) ~setups ~stop_after =
  let rec go k acc =
    let d, warmed, took = setup t in
    if k < setups then begin
      Daemon.stop d;
      go (k + 1) (took :: acc)
    end
    else (d, warmed, List.rev (took :: acc))
  in
  let d, warmed, setup_s = go 1 [] in
  let stats0 = Json.of_string (Daemon.rpc d stats_bytes) in
  let cpu0 = Daemon.cpu_ns d and steal0 = Daemon.steal_ticks () in
  let epoch = ref 0 in
  let start = now_ns () in
  let rec loop i daemon_cpu acc =
    if i >= stop_after then List.rev acc
    else begin
      let req = t.Inputs.measured i in
      let bytes = Inputs.measured_bytes t i in
      let s, c = round_trip d ~epoch ~daemon_cpu req bytes in
      loop (i + 1) c (s :: acc)
    end
  in
  let measured = loop 0 cpu0 [] in
  let cpu_ms = float_of_int (Daemon.cpu_ns d - cpu0) /. 1e6 in
  let steal_ms = float_of_int (Daemon.steal_ticks () - steal0) *. Daemon.ms_per_tick in
  let stats1 = Json.of_string (Daemon.rpc d stats_bytes) in
  let hwm_kb = Daemon.vmhwm_kb d in
  (* a cached read must agree with a nocache decide at the same epoch;
     workloads without nocache decides of their read keys get them here,
     after the measured phase *)
  let cached_keys =
    List.sort_uniq compare
      (List.filter_map
         (fun s -> if s.cls = Read then Some (Option.get s.key, s.req) else None)
         measured)
  in
  let fresh =
    List.filter_map
      (fun s -> if s.cls = Decide then Option.map (fun k -> (k, Option.get s.label)) s.key else None)
      measured
  in
  let cross =
    List.concat_map
      (fun (key, req) ->
        if List.mem_assoc key fresh || epoch_of_key key <> !epoch then []
        else
          let nocache_req =
            match req with
            | Protocol.Rcdp r -> Protocol.Rcdp { r with nocache = true }
            | Protocol.Rcqp r -> Protocol.Rcqp { r with nocache = true }
            | Protocol.Mine r -> Protocol.Mine { r with nocache = true }
            | r -> r
          in
          let raw = Daemon.rpc d (Json.to_string (Protocol.to_json nocache_req)) in
          [ (key, Check.label (Json.of_string raw)) ])
      cached_keys
  in
  Daemon.stop d;
  {
    setup_s;
    start_ns = start;
    warmed;
    measured;
    cpu_ms;
    steal_ms;
    hwm_kb;
    stats = (stats0, stats1);
    cross = fresh @ cross;
  }

(* All verdict checks; returns the number of wrong verdicts outside the
   measured phase (set-up replies, cross-checks), which make the run
   incorrect without counting as attempts. *)
let check_pass t refs p =
  let keyed ss = List.filter_map (fun s -> Option.map (fun k -> (k, s.req)) s.key) ss in
  references t refs (keyed p.warmed @ keyed p.measured);
  reference_check refs p.warmed;
  reference_check refs p.measured;
  let cross_wrong =
    List.length
      (List.filter
         (fun s ->
           s.cls = Read
           && (match List.assoc_opt (Option.get s.key) p.cross with
               | Some l -> Some l <> s.label
               | None -> false))
         p.measured)
  in
  List.length (List.filter (fun s -> s.fail <> None) p.warmed) + cross_wrong

(* ------------------------------------------------------------------ *)
(* Daemon counters *)

(* Every counter and gauge of a [stats] reply, summed over label sets,
   plus [<histogram>.count] and [<histogram>.sum_us]. *)
let counters stats =
  let tbl = Hashtbl.create 64 in
  let add k v = Hashtbl.replace tbl k (v + Option.value ~default:0 (Hashtbl.find_opt tbl k)) in
  (match Check.field "metrics" stats with
   | Some (Json.List ms) ->
     List.iter
       (fun m ->
         let name = Option.value ~default:"" (Check.str_field "name" m) in
         let labelled =
           match Check.field "labels" m with
           | Some (Json.Obj ls) ->
             List.map (fun (k, v) -> Printf.sprintf "%s{%s=%s}" name k (match v with Json.Str s -> s | _ -> "")) ls
           | _ -> []
         in
         match Check.str_field "type" m with
         | Some "histogram" ->
           add (name ^ ".count") (Check.int_field "count" m);
           add (name ^ ".sum_us") (Check.int_field "sum_us" m)
         | _ ->
           let v = Check.int_field "value" m in
           add name v;
           List.iter (fun k -> add k v) labelled)
       ms
   | _ -> ());
  (match Check.field "cache" stats with
   | Some c ->
     List.iter (fun k -> add ("cache." ^ k) (Check.int_field k c)) [ "hits"; "misses"; "carried"; "dropped" ]
   | None -> ());
  tbl

let delta (s0, s1) =
  let c0 = counters s0 and c1 = counters s1 in
  fun name ->
    Option.value ~default:0 (Hashtbl.find_opt c1 name)
    - Option.value ~default:0 (Hashtbl.find_opt c0 name)

let gauge (_, s1) name = Option.value ~default:0 (Hashtbl.find_opt (counters s1) name)


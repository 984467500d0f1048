(* --trace 1: per-layer metrics of one workload.

   Three sources, none of them inside the program:
   - the live daemon, driven through a fixed prefix of the workload's
     sequence and bracketed by two [stats] requests, gives exact counts
     (deltas of counters the daemon documents as never reset) and the
     front end's share of each round trip;
   - an in-process replay of the same requests through a fresh
     [Service.t] under harness spans (request > text.decode,
     service.handle, text.encode) gives decode, handle and encode times,
     and the tracing overhead against an untraced replay;
   - probes call each inner layer's public functions on the requests'
     own inputs (deciders, Adom, Lang.eval, Containment, Database, Rix,
     Session.insert, Scenario.parse).  A probe runs beside, not inside,
     the handle call it stands for, so its span is marked differential:
     the parent's self time is its duration minus the probe's. *)

open Ric_relational
open Ric_service
open Drive
module Json = Ric_text.Json
module Scenario = Ric_text.Scenario
module Metrics = Ric_obs.Metrics

(* Requests driven and replayed: a fixed number, so the counts repeat
   exactly, and few enough that a traced run stays near a minute
   (cold_search's 24 hold the miner, its first request, and an item of
   every stratum of its interleaved cycle). *)
let prefix (t : Inputs.t) =
  match t.Inputs.workload with
  | Inputs.Cold_search -> 24
  | Inputs.Cached_reads -> 20_000
  | Inputs.Bulk_update -> 10 * Inputs.round_length

let time f =
  let t0 = now_ns () in
  let x = f () in
  (x, now_ns () - t0)

(* median over [reps] runs of [f], in ns *)
let median_ns reps f = median (List.init reps (fun _ -> float_of_int (snd (time f))))

(* ------------------------------------------------------------------ *)
(* Harness spans, kept in memory and written out when the run ends *)

type span = {
  id : int;
  name : string;
  parent : int;  (** -1 for a request's root *)
  request : int;
  start_ns : int;
  end_ns : int;
  differential : bool;  (** timed beside its parent on the same inputs *)
}

let spans : span list ref = ref []
let next_id = ref 0

let span name ~parent ~req:request f =
  let id = !next_id in
  incr next_id;
  let start_ns = now_ns () in
  let x = f id in
  let end_ns = now_ns () in
  spans := { id; name; parent; request; start_ns; end_ns; differential = false } :: !spans;
  x

(* a differential span: [ns] measured by a probe beside [parent] *)
let child ~parent ~request name ns =
  let s = now_ns () in
  spans := { id = !next_id; name; parent; request; start_ns = s; end_ns = s + ns; differential = true } :: !spans;
  incr next_id

let write_spans path =
  Out_channel.with_open_bin path (fun oc ->
      List.iter
        (fun s ->
          Printf.fprintf oc
            "{\"id\":%d,\"name\":%S,\"parent\":%d,\"req\":%d,\"start_ns\":%d,\"end_ns\":%d,\"differential\":%b}\n"
            s.id s.name s.parent s.request s.start_ns s.end_ns s.differential)
        (List.rev !spans))

(* self time = duration minus what the children cover (differential
   children are subtracted by their duration) *)
let self_times () =
  let children = Hashtbl.create 1024 in
  List.iter
    (fun s -> if s.parent >= 0 then Hashtbl.replace children s.parent
                 (s.end_ns - s.start_ns + Option.value ~default:0 (Hashtbl.find_opt children s.parent)))
    !spans;
  let by_name = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let dur = s.end_ns - s.start_ns in
      let self = max 0 (dur - Option.value ~default:0 (Hashtbl.find_opt children s.id)) in
      let n, d, sf, diff = Option.value ~default:(0, 0, 0, false) (Hashtbl.find_opt by_name s.name) in
      Hashtbl.replace by_name s.name (n + 1, d + dur, sf + self, diff || s.differential))
    !spans;
  Hashtbl.fold (fun name v acc -> (name, v) :: acc) by_name [] |> List.sort compare

(* ------------------------------------------------------------------ *)
(* In-process replay *)

let decode bytes =
  match Protocol.of_json (Json.of_string bytes) with
  | Ok r -> r
  | Error e -> failwith ("undecodable request: " ^ e)

let fresh_service (t : Inputs.t) =
  let svc = Service.create ~root:"." () in
  List.iter (fun b -> ignore (Service.handle svc (decode b))) (Inputs.setup_bytes t);
  svc

(* Untraced: the CPU time of decode + handle + encode over the prefix. *)
let replay_plain t n =
  let svc = fresh_service t in
  let c0 = Daemon.self_cpu_ns () in
  for i = 0 to n - 1 do
    ignore (Json.to_string (Service.handle svc (decode (Inputs.measured_bytes t i))))
  done;
  Daemon.self_cpu_ns () - c0

type replayed = {
  root_ns : int;  (** CPU time of the traced loop, spans included *)
  decode_us : float list;
  handle : (int * int * bool) list;  (** request, service.handle span id, decided (not cached) *)
  handle_us : float list;
  encode_us : float list;
  gc : Gc.stat * Gc.stat;
}

let replay_traced t n =
  let svc = fresh_service t in
  let root_ns = ref 0 and dec = ref [] and hdl = ref [] and hus = ref [] and enc = ref [] in
  let gc0 = Gc.quick_stat () in
  let c0 = Daemon.self_cpu_ns () in
  for i = 0 to n - 1 do
    let bytes = Inputs.measured_bytes t i in
    span "request" ~parent:(-1) ~req:i (fun root ->
        let d0 = now_ns () in
        let req = span "text.decode" ~parent:root ~req:i (fun _ -> decode bytes) in
        let h0 = now_ns () in
        let reply, hid = span "service.handle" ~parent:root ~req:i (fun id -> (Service.handle svc req, id)) in
        let e0 = now_ns () in
        ignore (span "text.encode" ~parent:root ~req:i (fun _ -> Json.to_string reply));
        let e1 = now_ns () in
        dec := float_of_int (h0 - d0) /. 1e3 :: !dec;
        hus := float_of_int (e0 - h0) /. 1e3 :: !hus;
        enc := float_of_int (e1 - e0) /. 1e3 :: !enc;
        let decided = Check.is_decide req && not (Check.bool_field "cached" reply) in
        hdl := (i, hid, decided) :: !hdl)
  done;
  root_ns := Daemon.self_cpu_ns () - c0;
  let gc1 = Gc.quick_stat () in
  {
    root_ns = !root_ns;
    decode_us = !dec;
    handle = List.rev !hdl;
    handle_us = !hus;
    encode_us = !enc;
    gc = (gc0, gc1);
  }

(* ------------------------------------------------------------------ *)
(* Probes on the requests' own inputs *)

let steps_now () =
  List.fold_left
    (fun n (s : Metrics.sample) ->
      match s.Metrics.value with
      | Metrics.Counter c when s.Metrics.name = "ric_search_steps_total" -> n + c
      | _ -> n)
    0 (Metrics.snapshot ())

let adom_probe (st : Check.state) q =
  let sc = st.Check.scenario in
  let ccs = Scenario.all_ccs sc in
  let cc_constants =
    List.sort_uniq Value.compare (List.concat_map Ric_constraints.Containment.constants ccs)
  in
  Ric_complete.Adom.build ~db:st.Check.db ~schemas:[ sc.Scenario.db_schema ] ~master:sc.Scenario.master
    ~cc_constants ~query_constants:(Ric_query.Lang.constants q)
    ~fresh_count:(Ric_query.Lang.var_count q + 1) ()

(* the revalidation a cached counterexample gets after an insert *)
let revalidate (st : Check.state) ~db q (cex : Ric_complete.Rcdp.counterexample) =
  let sc = st.Check.scenario in
  let extended = Database.union db cex.Ric_complete.Rcdp.cex_extension in
  Ric_constraints.Containment.holds_all ~db:extended ~master:sc.Scenario.master (Scenario.all_ccs sc)
  && Relation.mem cex.Ric_complete.Rcdp.cex_answer (Ric_query.Lang.eval extended q)
  && not (Relation.mem cex.Ric_complete.Rcdp.cex_answer (Ric_query.Lang.eval db q))

let batches_of_db db =
  Database.fold
    (fun rel r acc ->
      if Relation.is_empty r then acc
      else (rel, List.map Tuple.values (Relation.elements r)) :: acc)
    db []

type write_probe = {
  epoch : int;  (** of the state the write applies to *)
  before : Check.state;
  session : string;
  batches : (string * Value.t list list) list;
}

let probe_session (st : Check.state) =
  {
    Session.id = "probe";
    name = None;
    scenario = st.Check.scenario;
    ccs_fingerprint = "";
    db = st.Check.db;
    epoch = 0;
    closure_violation = None;
  }

(* ------------------------------------------------------------------ *)

let traced (t : Inputs.t) =
  let n = prefix t in
  let refs = Hashtbl.create 256 in
  (match t.Inputs.workload with
   | Inputs.Bulk_update -> ()
   | _ ->
     references t refs
       (List.filter_map
          (fun r -> if Check.is_decide r then Some (Check.key ~epoch:0 r, r) else None)
          (t.Inputs.warm @ List.init (min n t.Inputs.period) t.Inputs.measured)));
  (* 1. the live daemon over the prefix *)
  let p = drive t ~setups:1 ~stop_after:n in
  let extra_wrong = check_pass t refs p in
  let d = delta p.stats in
  (* 2. in-process replays *)
  let plain_ns = replay_plain t n in
  let rp = replay_traced t n in
  (* 3. probes *)
  let max_epoch =
    List.fold_left (fun m s -> max m (Option.fold ~none:0 ~some:epoch_of_key s.key)) 0 p.measured
  in
  let states = model_states t ~max_epoch in
  let decides =
    List.sort_uniq compare
      (List.filter_map (fun s -> Option.map (fun k -> (k, s.req)) s.key) p.measured)
  in
  let state_of key req = Hashtbl.find states (Option.get (Check.session_of req), epoch_of_key key) in
  let steps0 = steps_now () in
  let probed =
    List.map
      (fun (key, req) ->
        let (_, verdict), ns = time (fun () -> Check.reference (state_of key req) req) in
        (key, (req, verdict, ns)))
      decides
  in
  let steps = steps_now () - steps0 in
  let search_ns =
    List.fold_left
      (fun a (_, (req, _, ns)) -> match req with Protocol.Mine _ -> a | _ -> a + ns)
      0 probed
  in
  (* differential children: the decider under each handle call that ran it *)
  let keys = Array.of_list (List.map (fun s -> s.key) p.measured) in
  List.iter
    (fun (i, hid, decided) ->
      match keys.(i) with
      | Some key when decided ->
        let req, _, ns = List.assoc key probed in
        let name = match req with Protocol.Mine _ -> "mining.mine" | _ -> "complete.decide" in
        child ~parent:hid ~request:i name ns
      | _ -> ())
    rp.handle;
  let searches =
    List.filter_map
      (fun (key, (req, _, ns)) ->
        match req with
        | Protocol.Rcdp { query; _ } | Protocol.Rcqp { query; _ } -> Some (key, req, query, ns)
        | _ -> None)
      probed
  in
  let adoms =
    List.map
      (fun (key, req, query, _) ->
        let st = state_of key req in
        let q = Check.query st query in
        let a, ns = time (fun () -> adom_probe st q) in
        (Ric_complete.Adom.size a, ns))
      searches
  in
  let evals =
    List.map
      (fun (key, req, query, _) ->
        let st = state_of key req in
        let q = Check.query st query in
        median_ns 3 (fun () -> Ric_query.Lang.eval st.Check.db q))
      searches
  in
  let mines =
    List.filter_map
      (fun (key, (req, _, _)) ->
        match req with
        | Protocol.Mine _ ->
          let r, ns = time (fun () -> Check.mine (state_of key req)) in
          Some (r.Ric_mining.Mine.stats.Ric_mining.Mine.enumerated, ns)
        | _ -> None)
      probed
  in
  let distinct_states =
    List.sort_uniq compare (List.map (fun (key, req) -> (Option.get (Check.session_of req), epoch_of_key key)) decides)
    |> List.map (fun k -> Hashtbl.find states k)
  in
  let closure =
    List.map
      (fun (st : Check.state) ->
        median_ns 3 (fun () ->
            Ric_constraints.Containment.holds_all ~db:st.Check.db
              ~master:st.Check.scenario.Scenario.master (Scenario.all_ccs st.Check.scenario)))
      distinct_states
  in
  (* writes: bulk_update's own; elsewhere the counterexample extensions
     of the Incomplete verdicts, the insert that would close the gap *)
  let incomplete =
    List.filter_map
      (fun (key, (req, verdict, _)) ->
        match (req, verdict) with
        | Protocol.Rcdp { query; session; _ }, Some (Ric_complete.Rcdp.Incomplete cex) ->
          Some (key, session, query, cex)
        | _ -> None)
      probed
  in
  let writes =
    match t.Inputs.workload with
    | Inputs.Bulk_update ->
      List.filter_map
        (fun s ->
          match s.req with
          | Protocol.Insert { session; rel; rows } -> Some (session, [ (rel, rows) ])
          | Protocol.Insert_bulk { session; batches } -> Some (session, batches)
          | _ -> None)
        p.measured
      |> List.mapi (fun e (session, batches) ->
             { epoch = e; before = Hashtbl.find states (session, e); session; batches })
    | _ ->
      List.map
        (fun (key, session, _, cex) ->
          {
            epoch = epoch_of_key key;
            before = Hashtbl.find states (session, epoch_of_key key);
            session;
            batches = batches_of_db cex.Ric_complete.Rcdp.cex_extension;
          })
        incomplete
  in
  let delta_db (w : write_probe) =
    List.fold_left
      (fun db (rel, rows) -> List.fold_left (fun db row -> Database.add_tuple db rel (Tuple.make row)) db rows)
      (Database.empty (Database.schema w.before.Check.db))
      w.batches
  in
  let inserts =
    List.map (fun w -> median_ns 3 (fun () -> Session.insert_batches (probe_session w.before) ~batches:w.batches)) writes
  in
  let add_tuples =
    List.map
      (fun w ->
        let rel, rows = List.hd w.batches in
        median_ns 3 (fun () -> Database.add_tuple w.before.Check.db rel (Tuple.make (List.hd rows))))
      writes
  in
  let unions =
    List.map (fun w -> let dlt = delta_db w in median_ns 3 (fun () -> Database.union w.before.Check.db dlt)) writes
  in
  (* per write: the revalidation of every Incomplete verdict cached
     before it *)
  let revalidations =
    List.map
      (fun (w : write_probe) ->
        let bulk = t.Inputs.workload = Inputs.Bulk_update in
        let after = if bulk then Database.union w.before.Check.db (delta_db w) else w.before.Check.db in
        List.filter_map
          (fun (key, session, query, cex) ->
            if session = w.session && ((not bulk) || epoch_of_key key = w.epoch) then
              let q = Check.query w.before query in
              Some (median_ns 3 (fun () -> revalidate w.before ~db:after q cex))
            else None)
          incomplete)
      writes
  in
  (* differential children of each write's handle call *)
  if t.Inputs.workload = Inputs.Bulk_update then begin
    let per_write = Array.of_list (List.combine inserts revalidations) in
    let k = ref 0 in
    List.iter
      (fun (i, hid, _) ->
        if Check.is_write (t.Inputs.measured i) && !k < Array.length per_write then begin
          let ins, revs = per_write.(!k) in
          incr k;
          child ~parent:hid ~request:i "service.session_insert" (int_of_float ins);
          child ~parent:hid ~request:i "service.revalidate"
            (int_of_float (List.fold_left ( +. ) 0. revs))
        end)
      rp.handle
  end;
  let files = List.sort_uniq compare t.Inputs.opens in
  let texts = List.map Daemon.read_file files in
  let ingest_ns = median_ns 3 (fun () -> List.iter (fun s -> ignore (Scenario.parse s)) texts) in
  let loaded = List.map Scenario.parse texts in
  let ingest_tuples =
    List.fold_left
      (fun a sc -> a + Database.total_tuples sc.Scenario.db + Database.total_tuples sc.Scenario.master)
      0 loaded
  in
  let rix_ns =
    median_ns 3 (fun () ->
        List.iter
          (fun sc -> Database.fold (fun _ r () -> ignore (Rix.build r)) sc.Scenario.db ())
          loaded)
  in
  (* ---------------------------------------------------------------- *)
  let f = float_of_int in
  let ratio a b = if b = 0 then 0. else f a /. f b in
  let ms_l xs = median (List.map (fun ns -> ns /. 1e6) xs) in
  let frontend =
    List.filter_map
      (fun s ->
        match s.cls with
        | Read -> Some (ms s.rtt_ns)
        | Decide -> Some (ms s.rtt_ns -. (f s.elapsed_us /. 1e3))
        | _ -> None)
      p.measured
  in
  let writes_n = List.length (List.filter (fun s -> s.cls = Write) p.measured) in
  let cache_sum k =
    List.fold_left
      (fun a s -> a + Option.value ~default:0 (List.assoc_opt k s.migrated))
      0 p.measured
  in
  let visited = d "ric_rcdp_valuations_visited_total" and pruned = d "ric_rcdp_branches_pruned_total" in
  let builds = d "ric_match_index_builds_total" and reuses = d "ric_match_index_reuses_total" in
  let cands = d "ric_mine_candidates_total{stage=enumerated}" in
  let accepted = d "ric_mine_candidates_total{stage=accepted}" in
  let mine_cands = List.fold_left (fun a (c, _) -> a + c) 0 mines in
  let mine_ns = List.fold_left (fun a (_, ns) -> a + ns) 0 mines in
  let gc0, gc1 = rp.gc in
  let traced_ns = rp.root_ns in
  let metrics =
    [
      ("server.frontend_ms", "ms", median frontend);
      ("server.queue_wait_ms", "ms",
        ratio (d "ric_server_queue_wait_seconds.sum_us") (d "ric_server_queue_wait_seconds.count") /. 1e3);
      ("server.sheds", "count", f (d "ric_server_shed_total"));
      ("text.decode_us", "us", median rp.decode_us);
      ("text.encode_us", "us", median rp.encode_us);
      ("text.ingest_ms", "ms", ingest_ns /. 1e6);
      ("text.ingest_tuples_per_s", "1/s", f ingest_tuples /. (ingest_ns /. 1e9));
      ("service.handle_us", "us", median rp.handle_us);
      ("service.cache_hit_ratio", "ratio", ratio (d "cache.hits") (d "cache.hits" + d "cache.misses"));
      ("service.revalidated_per_write", "count", ratio (cache_sum "revalidated") writes_n);
      ("service.carried_per_write", "count", ratio (cache_sum "carried") writes_n);
      ("service.dropped_per_write", "count", ratio (cache_sum "dropped") writes_n);
      ("service.session_insert_ms", "ms", ms_l inserts);
      ("service.revalidate_ms", "ms", ms_l (List.concat revalidations));
      ("complete.decide_ms", "ms", ms_l (List.map (fun (_, _, _, ns) -> f ns) searches));
      ("complete.steps", "count", f (d "ric_search_steps_total"));
      ("complete.steps_per_s", "1/s", if search_ns = 0 then 0. else f steps /. (f search_ns /. 1e9));
      ("complete.us_per_step", "us", if steps = 0 then 0. else f search_ns /. 1e3 /. f steps);
      ("complete.visited", "count", f visited);
      ("complete.pruned", "count", f pruned);
      ("complete.prune_ratio", "ratio", ratio pruned (visited + pruned));
      ("complete.rcqp_pool_candidates", "count", f (d "ric_rcqp_pool_candidates_total"));
      ("complete.rcqp_e2_nodes", "count", f (d "ric_rcqp_e2_nodes_total"));
      ("complete.adom_build_us", "us", median (List.map (fun (_, ns) -> f ns /. 1e3) adoms));
      ("complete.adom_size", "count", f (List.fold_left (fun a (s, _) -> a + s) 0 adoms));
      ("constraints.delta_checks", "count", f (d "ric_incremental_delta_checks_total"));
      ("constraints.full_checks", "count", f (d "ric_incremental_full_checks_total"));
      ("constraints.closure_check_ms", "ms", ms_l closure);
      ("query.eval_ms", "ms", ms_l evals);
      ("query.index_builds", "count", f builds);
      ("query.index_reuses", "count", f reuses);
      ("query.index_reuse_ratio", "ratio", ratio reuses (builds + reuses));
      ("query.memo_evictions", "count", f (d "ric_kernel_memo_evictions_total"));
      ("relational.add_tuple_ms", "ms", ms_l add_tuples);
      ("relational.union_ms", "ms", ms_l unions);
      ("relational.rix_build_ms", "ms", rix_ns /. 1e6);
      ("relational.intern_entries", "count", f (gauge p.stats "ric_intern_entries"));
      ("relational.intern_growths", "count", f (d "ric_intern_growth_total"));
      ("relational.intern_lock_acq", "count", f (d "ric_intern_lock_acquisitions_total"));
      ("mining.candidates", "count", f cands);
      ("mining.accepted", "count", f accepted);
      ("mining.accept_ratio", "ratio", ratio accepted cands);
      ("mining.candidates_per_s", "1/s", if mine_ns = 0 then 0. else f mine_cands /. (f mine_ns /. 1e9));
      ("gc.minor_words_per_req", "words", (gc1.Gc.minor_words -. gc0.Gc.minor_words) /. f n);
      ("gc.major_collections_per_req", "count", ratio (gc1.Gc.major_collections - gc0.Gc.major_collections) n);
      ("trace.overhead_us_per_req", "us", f (traced_ns - plain_ns) /. 1e3 /. f n);
    ]
  in
  Printf.printf "traced prefix: %d requests (%d decides, %d reads, %d writes); %d references\n" n
    (List.length (List.filter (fun s -> s.cls = Decide) p.measured))
    (List.length (List.filter (fun s -> s.cls = Read) p.measured))
    writes_n (Hashtbl.length refs);
  Printf.printf "replay: untraced %.3f ms, traced %.3f ms CPU over %d requests\n" (ms plain_ns) (ms traced_ns) n;
  Printf.printf "%-20s %8s %14s %14s  %s\n" "span" "count" "total ms" "self ms" "";
  List.iter
    (fun (name, (count, dur, self, diff)) ->
      Printf.printf "%-20s %8d %14.3f %14.3f  %s\n" name count (ms dur) (ms self)
        (if diff then "differential: timed beside its parent on the same inputs" else ""))
    (self_times ());
  List.iter (fun (name, unit, v) -> Printf.printf "  %-32s %16.6f %s\n" name v unit) metrics;
  write_spans (Printf.sprintf "%s/spans-%s-%d.jsonl" Daemon.state_dir (Inputs.workload_name t.Inputs.workload) t.Inputs.seed);
  (p, extra_wrong, metrics)

open Ric_relational
open Ric_query
open Ric_constraints
open Ric_complete
module Json = Ric_text.Json
module Report = Ric_text.Report
module Scenario = Ric_text.Scenario
module Journal = Ric_text.Journal
module Metrics = Ric_obs.Metrics
module Trace = Ric_obs.Trace

(* Per-op request counters and latency histograms, pre-registered so a
   scrape shows the full family at zero before the first request. *)
let known_ops =
  [
    "ping"; "open"; "rcdp"; "rcqp"; "audit"; "mine"; "insert"; "insert_bulk";
    "close"; "stats"; "dump"; "shutdown";
  ]

let op_counter op =
  Metrics.counter ~help:"requests handled, by operation" ~labels:[ ("op", op) ]
    "ric_requests_total"

let op_histogram op =
  Metrics.histogram ~help:"request handling latency in seconds, by operation"
    ~labels:[ ("op", op) ] "ric_op_latency_seconds"

let op_counters = List.map (fun op -> (op, op_counter op)) known_ops
let op_histograms = List.map (fun op -> (op, op_histogram op)) known_ops

let m_timeouts =
  Metrics.counter ~help:"decide requests that hit their time budget"
    "ric_request_timeouts_total"

type t = {
  registry : Session.registry;
  cache : Cache.t;
  mutex : Mutex.t;
  root : string option;
  started_at : float;
  stop : bool Atomic.t;
  op_counts : (string, int) Hashtbl.t;
  mutable requests : int;
  mutable timeouts : int;
  mutable journal : Journal.t option;
  mutable flight_path : string option;
}

let with_lock t f =
  Mutex.lock t.mutex;
  match f () with
  | v ->
    Mutex.unlock t.mutex;
    v
  | exception e ->
    Mutex.unlock t.mutex;
    raise e

let create ?root () =
  let t =
    {
      registry = Session.create ();
      cache = Cache.create ();
      mutex = Mutex.create ();
      root;
      started_at = Metrics.now_s ();
      stop = Atomic.make false;
      op_counts = Hashtbl.create 8;
      requests = 0;
      timeouts = 0;
      journal = None;
      flight_path = None;
    }
  in
  (* pull gauges: evaluated at scrape time, never inside [t.mutex] (the
     registry snapshot runs pull functions outside its own lock, and
     [handle_stats] snapshots before taking the service lock) *)
  Metrics.gauge_fn ~help:"sessions currently open" "ric_sessions_open"
    (fun () -> with_lock t (fun () -> Session.count t.registry));
  Metrics.gauge_fn ~help:"live verdict-cache entries" "ric_cache_entries"
    (fun () -> with_lock t (fun () -> (Cache.stats t.cache).Cache.entries));
  t

let shutdown_requested t = Atomic.get t.stop

let request_shutdown t = Atomic.set t.stop true

let attach_journal t j = t.journal <- Some j

let set_flight_path t path = t.flight_path <- Some path

(* Callers hold no particular lock; [Journal.append] serialises
   internally, and journal-write failures must never fail a request. *)
let journal_entry t entry =
  match t.journal with
  | None -> ()
  | Some j -> ( try Journal.append j entry with Sys_error _ -> ())

(* ------------------------------------------------------------------ *)
(* Response builders. *)

let ok fields = Json.Obj (("ok", Json.Bool true) :: fields)

let timeout_result ?rcdp_stats ~clock ~timeout_ms reason =
  Json.Obj
    ([ ("verdict", Json.Str "timeout"); ("reason", Json.Str (Budget.reason_name reason)) ]
    @ (match timeout_ms with Some ms -> [ ("timeout_ms", Json.Int ms) ] | None -> [])
    @ [ ("steps", Json.Int (Budget.steps clock)) ]
    @
    match rcdp_stats with
    | Some s ->
      [
        ("valuations_visited", Json.Int s.Rcdp.valuations_visited);
        ("branches_pruned", Json.Int s.Rcdp.branches_pruned);
      ]
    | None -> [])

(* [profile] rides on the response, never inside [result]: the cache
   stores [result] only, so a later cache hit — or an explain:false
   request on the same key — can never replay a stale profile. *)
let verdict_response ?profile ~session ~query ~epoch ~cached ~revalidated
    ~elapsed_us result =
  ok
    ([
       ("session", Json.Str session);
       ("query", Json.Str query);
       ("epoch", Json.Int epoch);
       ("cached", Json.Bool cached);
       ("revalidated", Json.Bool revalidated);
       ("elapsed_us", Json.Int elapsed_us);
       ("result", result);
     ]
    @ match profile with Some p -> [ ("profile", p) ] | None -> [])

let elapsed_us t0 = int_of_float ((Metrics.now_s () -. t0) *. 1e6)

(* ------------------------------------------------------------------ *)
(* open *)

let load_scenario t ~path ~source =
  match (path, source) with
  | Some p, _ ->
    let resolved =
      match t.root with
      | Some root when Filename.is_relative p -> Filename.concat root p
      | _ -> p
    in
    (match Scenario.load resolved with
     | s -> Ok (s, Some p)
     | exception Scenario.Parse_error (msg, line, col) ->
       Error
         (Protocol.error ~kind:"parse_error"
            (Printf.sprintf "%s:%d:%d: %s" resolved line col msg))
     | exception Sys_error msg -> Error (Protocol.error ~kind:"io_error" msg))
  | None, Some src ->
    (match Scenario.parse src with
     | s -> Ok (s, None)
     | exception Scenario.Parse_error (msg, line, col) ->
       Error
         (Protocol.error ~kind:"parse_error"
            (Printf.sprintf "<inline>:%d:%d: %s" line col msg)))
  | None, None -> Error (Protocol.error ~kind:"bad_request" "open needs a path or a source")

let handle_open t ~path ~source ~name =
  match load_scenario t ~path ~source with
  | Error e -> e
  | Ok (scenario, _) ->
    let s =
      with_lock t (fun () -> Session.open_scenario t.registry ?name scenario)
    in
    journal_entry t
      (Journal.Opened
         {
           id = s.Session.id;
           name;
           (* journal the printed scenario, not the path: recovery must
              not depend on the original file surviving the crash *)
           source = Format.asprintf "%a" Scenario.pp scenario;
         });
    ok
      ([
         ("session", Json.Str s.Session.id);
         ("epoch", Json.Int s.Session.epoch);
         ("queries", Json.List (List.map (fun q -> Json.Str q) (Session.query_names s)));
         ("constraints", Json.Int (List.length (Scenario.all_ccs scenario)));
         ("partially_closed", Json.Bool (Session.partially_closed s));
       ]
      @
      match s.Session.closure_violation with
      | Some v -> [ ("violation", Report.violation v) ]
      | None -> [])

(* ------------------------------------------------------------------ *)
(* rcdp / rcqp / audit *)

type snapshot = {
  sn_db : Database.t;
  sn_epoch : int;
  sn_fingerprint : string;
  sn_violation : (string * Tuple.t) option;
  sn_scenario : Scenario.t;
  sn_query : Lang.t;
  sn_checker : unit -> Checker.t;  (** the session's, built on first use *)
}

let snapshot t ~session ~query =
  with_lock t (fun () ->
      match Session.find t.registry session with
      | None ->
        Error
          (Protocol.error ~kind:"unknown_session"
             (Printf.sprintf "unknown session %S (%d open)" session
                (Session.count t.registry)))
      | Some s ->
        (match Session.find_query s query with
         | None ->
           Error
             (Protocol.error ~kind:"unknown_query"
                (Printf.sprintf "session %s has no query %S; available: %s" session query
                   (String.concat ", " (Session.query_names s))))
         | Some q ->
           Ok
             {
               sn_db = s.Session.db;
               sn_epoch = s.Session.epoch;
               sn_fingerprint = s.Session.ccs_fingerprint;
               sn_violation = s.Session.closure_violation;
               sn_scenario = s.Session.scenario;
               sn_query = q;
               sn_checker = (fun () -> Session.checker s);
             }))

(* what a decider run produced: the JSON result, the raw RCDP verdict
   for cache revalidation, and whether the cache may keep it — a
   timed-out verdict says nothing about the query, only about the
   caller's patience, so it must never be stored *)
type computed = {
  c_result : Json.t;
  c_rcdp : Rcdp.verdict option;
  c_cacheable : bool;
  c_profile : Json.t option;  (** explain profile of this fresh run *)
}

let note_timeout t =
  Metrics.incr m_timeouts;
  with_lock t (fun () -> t.timeouts <- t.timeouts + 1)

(* A request's deadline is anchored at [admitted_at] (when the event
   loop read its frame, on the monotonic clock), not at decider start:
   time spent waiting behind other frames counts against [timeout_ms],
   so a long-waiting request answers a timeout verdict quickly instead
   of running after its caller gave up.  Time the frame spent in the
   kernel's socket buffer before the loop read it does not count.  A
   deadline already in the past yields a budget that raises on its
   first tick. *)
let clock_of_timeout ?admitted_at ?label ?(explain = false) timeout_ms =
  match timeout_ms with
  | Some ms ->
    let d = float_of_int ms /. 1000. in
    let d =
      match admitted_at with
      | Some t0 -> t0 +. d -. Metrics.now_s ()
      | None -> d
    in
    Budget.create ~deadline_after:d ?label ()
  | None ->
    (* [Budget.unlimited]'s tick is a no-op and the singleton cannot
       carry a label, so explain mode and correlated requests get a
       limited-but-unbounded budget: steps count (the profile's
       ["steps"] denominator) and [Budget.label] carries the req_id
       into the deciders' spans, at the cost of an increment and a
       compare per candidate. *)
    if explain || label <> None then Budget.create ?label ()
    else Budget.unlimited

(* The explain profile as reply JSON.  ["steps"] is the budget's total
   (the denominator the ≥95% attribution check divides by);
   ["attributed_steps"] sums the per-level rows plus every counter
   ending in ["_steps"]. *)
let profile_json ~clock p =
  let open Ric_obs.Profile in
  let snap = snapshot p in
  Json.Obj
    [
      ("steps", Json.Int (Budget.steps clock));
      ("attributed_steps", Json.Int (attributed_steps snap));
      ( "levels",
        Json.List
          (List.map
             (fun r ->
               Json.Obj
                 [
                   ("level", Json.Int r.lv_index);
                   ("atom", Json.Str r.lv_name);
                   ("source", Json.Str r.lv_source);
                   ("steps", Json.Int r.lv_steps);
                   ("prunes", Json.Int r.lv_prunes);
                 ])
             snap.levels) );
      ( "constraints",
        Json.List
          (List.map
             (fun (name, prunes) ->
               Json.Obj [ ("name", Json.Str name); ("prunes", Json.Int prunes) ])
             snap.constraints) );
      ("counters", Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) snap.counters));
      ("notes", Json.Obj (List.map (fun (k, v) -> (k, Json.Str v)) snap.notes));
    ]

(* serve one epoch-keyed decide (rcdp or audit) through the cache; an
   explain request bypasses the cache {e read} — the profile must
   describe this very run — but its fresh verdict may still be stored *)
let cached_decide t ~kind ~session ~query ~nocache ~explain ~key ~compute sn =
  match sn.sn_violation with
  | Some v ->
    (* not partially closed: the problem is undefined here — answer
       without caching (the violation is epoch-stable anyway) *)
    verdict_response ~session ~query ~epoch:sn.sn_epoch ~cached:false ~revalidated:false
      ~elapsed_us:0 (Report.not_closed_result v)
  | None ->
    let hit =
      if nocache || explain then None
      else with_lock t (fun () -> Cache.find t.cache key)
    in
    (match hit with
     | Some e ->
       verdict_response ~session ~query ~epoch:sn.sn_epoch ~cached:true
         ~revalidated:e.Cache.revalidated ~elapsed_us:e.Cache.elapsed_us e.Cache.result
     | None ->
       Faults.fire "decide";
       let t0 = Metrics.now_s () in
       let c = compute sn in
       let elapsed = elapsed_us t0 in
       if (not nocache) && c.c_cacheable then
         with_lock t (fun () ->
             (* store only if the session is still at the snapshot
                epoch — otherwise the key is already stale *)
             match Session.find t.registry session with
             | Some s when s.Session.epoch = sn.sn_epoch ->
               Cache.store t.cache key
                 {
                   Cache.kind;
                   query;
                   result = c.c_result;
                   rcdp = c.c_rcdp;
                   elapsed_us = elapsed;
                   revalidated = false;
                 }
             | _ -> ());
       verdict_response ?profile:c.c_profile ~session ~query ~epoch:sn.sn_epoch
         ~cached:false ~revalidated:false ~elapsed_us:elapsed c.c_result)

let compute_rcdp t ?admitted_at ?req_id ~explain ~timeout_ms sn =
  let sc = sn.sn_scenario in
  let clock = clock_of_timeout ?admitted_at ?label:req_id ~explain timeout_ms in
  let profile = if explain then Some (Ric_obs.Profile.create ()) else None in
  (* built after the decide so timed-out runs report partial profiles *)
  let prof () = Option.map (profile_json ~clock) profile in
  let stats = ref { Rcdp.valuations_visited = 0; branches_pruned = 0 } in
  match
    (* partial closure is tracked per-session and already checked;
       skip the decider's own O(|V|) re-verification.  The session's
       checker is over the same CCs and master, and [D]'s relations
       may already carry this epoch's indexes (its write built them) *)
    Rcdp.decide ~clock ~collect_stats:stats ?profile
      ~check_partially_closed:false ~checker:(sn.sn_checker ())
      ~schema:sc.Scenario.db_schema ~master:sc.Scenario.master
      ~ccs:(Scenario.all_ccs sc) ~db:sn.sn_db sn.sn_query
  with
  | verdict ->
    {
      c_result = Report.rcdp_verdict verdict;
      c_rcdp = Some verdict;
      c_cacheable = true;
      c_profile = prof ();
    }
  | exception Rcdp.Unsupported msg ->
    {
      c_result = Report.unsupported_result msg;
      c_rcdp = None;
      c_cacheable = true;
      c_profile = prof ();
    }
  | exception Budget.Exhausted reason ->
    note_timeout t;
    {
      c_result = timeout_result ~rcdp_stats:!stats ~clock ~timeout_ms reason;
      c_rcdp = None;
      c_cacheable = false;
      c_profile = prof ();
    }

let compute_audit t ?admitted_at ?req_id ~explain ~timeout_ms sn =
  let sc = sn.sn_scenario in
  let clock = clock_of_timeout ?admitted_at ?label:req_id ~explain timeout_ms in
  let profile = if explain then Some (Ric_obs.Profile.create ()) else None in
  let prof () = Option.map (profile_json ~clock) profile in
  match
    Guidance.audit ~clock ?profile ~schema:sc.Scenario.db_schema
      ~master:sc.Scenario.master ~ccs:(Scenario.all_ccs sc) ~db:sn.sn_db
      sn.sn_query
  with
  | result ->
    {
      c_result = Report.audit_result result;
      c_rcdp = None;
      c_cacheable = true;
      c_profile = prof ();
    }
  | exception Rcdp.Unsupported msg ->
    {
      c_result = Report.unsupported_result msg;
      c_rcdp = None;
      c_cacheable = true;
      c_profile = prof ();
    }
  | exception Rcqp.Unsupported msg ->
    {
      c_result = Report.unsupported_result msg;
      c_rcdp = None;
      c_cacheable = true;
      c_profile = prof ();
    }
  | exception Budget.Exhausted reason ->
    note_timeout t;
    {
      c_result = timeout_result ~clock ~timeout_ms reason;
      c_rcdp = None;
      c_cacheable = false;
      c_profile = prof ();
    }

let handle_rcdp t ~admitted_at ~session ~query ~nocache ~timeout_ms ~req_id
    ~explain =
  match snapshot t ~session ~query with
  | Error e -> e
  | Ok sn ->
    let key =
      Cache.rcdp_key ~session ~fingerprint:sn.sn_fingerprint ~epoch:sn.sn_epoch ~query
    in
    cached_decide t ~kind:Cache.K_rcdp ~session ~query ~nocache ~explain ~key
      ~compute:(compute_rcdp t ?admitted_at ?req_id ~explain ~timeout_ms)
      sn

let handle_audit t ~admitted_at ~session ~query ~nocache ~timeout_ms ~req_id
    ~explain =
  match snapshot t ~session ~query with
  | Error e -> e
  | Ok sn ->
    let key =
      Cache.audit_key ~session ~fingerprint:sn.sn_fingerprint ~epoch:sn.sn_epoch ~query
    in
    cached_decide t ~kind:Cache.K_audit ~session ~query ~nocache ~explain ~key
      ~compute:(compute_audit t ?admitted_at ?req_id ~explain ~timeout_ms)
      sn

let handle_rcqp t ~admitted_at ~session ~query ~nocache ~timeout_ms ~req_id
    ~explain =
  match snapshot t ~session ~query with
  | Error e -> e
  | Ok sn ->
    (* RCQP never looks at D: no epoch in the key, no closure guard *)
    let key = Cache.rcqp_key ~session ~fingerprint:sn.sn_fingerprint ~query in
    let hit =
      if nocache || explain then None
      else with_lock t (fun () -> Cache.find t.cache key)
    in
    (match hit with
     | Some e ->
       verdict_response ~session ~query ~epoch:sn.sn_epoch ~cached:true
         ~revalidated:e.Cache.revalidated ~elapsed_us:e.Cache.elapsed_us e.Cache.result
     | None ->
       Faults.fire "decide";
       let sc = sn.sn_scenario in
       let clock = clock_of_timeout ?admitted_at ?label:req_id ~explain timeout_ms in
       let profile = if explain then Some (Ric_obs.Profile.create ()) else None in
       let t0 = Metrics.now_s () in
       let result, cacheable =
         match
           Rcqp.decide ~clock ?profile ~schema:sc.Scenario.db_schema
             ~master:sc.Scenario.master ~ccs:(Scenario.all_ccs sc) sn.sn_query
         with
         | verdict -> (Report.rcqp_verdict verdict, true)
         | exception Rcqp.Unsupported msg -> (Report.unsupported_result msg, true)
         | exception Budget.Exhausted reason ->
           note_timeout t;
           (timeout_result ~clock ~timeout_ms reason, false)
       in
       let elapsed = elapsed_us t0 in
       if (not nocache) && cacheable then
         with_lock t (fun () ->
             if Session.find t.registry session <> None then
               Cache.store t.cache key
                 {
                   Cache.kind = Cache.K_rcqp;
                   query;
                   result;
                   rcdp = None;
                   elapsed_us = elapsed;
                   revalidated = false;
                 });
       verdict_response
         ?profile:(Option.map (profile_json ~clock) profile)
         ~session ~query ~epoch:sn.sn_epoch ~cached:false ~revalidated:false
         ~elapsed_us:elapsed result)

(* ------------------------------------------------------------------ *)
(* mine: induce containment constraints from the session's (Dm, D) *)

let constraint_line named =
  String.trim (Format.asprintf "%a" Scenario.pp_named_constraint named)

let mine_json (r : Ric_mining.Mine.result) =
  Json.Obj
    ([
       ( "accepted",
         Json.List
           (List.map2
              (fun (name, cc) (s : Ric_mining.Score.scored) ->
                Json.Obj
                  [
                    ("name", Json.Str name);
                    ("family", Json.Str s.Ric_mining.Score.candidate.Ric_mining.Enumerate.family);
                    ("support", Json.Int s.Ric_mining.Score.support);
                    ( "confidence",
                      Json.Str (Printf.sprintf "%.3f" s.Ric_mining.Score.confidence) );
                    ("text", Json.Str (constraint_line (name, cc)));
                  ])
              r.Ric_mining.Mine.accepted r.Ric_mining.Mine.accepted_scored) );
       ( "stats",
         Json.Obj
           [
             ("enumerated", Json.Int r.Ric_mining.Mine.stats.Ric_mining.Mine.enumerated);
             ("duplicates", Json.Int r.Ric_mining.Mine.stats.Ric_mining.Mine.duplicates);
             ("pruned", Json.Int r.Ric_mining.Mine.stats.Ric_mining.Mine.pruned);
             ("evaluated", Json.Int r.Ric_mining.Mine.stats.Ric_mining.Mine.evaluated);
             ("accepted", Json.Int r.Ric_mining.Mine.stats.Ric_mining.Mine.accepted);
           ] );
     ]
    @
    match r.Ric_mining.Mine.timed_out with
    | Some reason -> [ ("timeout", Json.Str (Budget.reason_name reason)) ]
    | None -> [])

let mine_response ~session ~epoch ~cached ~elapsed_us result =
  ok
    [
      ("session", Json.Str session);
      ("epoch", Json.Int epoch);
      ("cached", Json.Bool cached);
      ("elapsed_us", Json.Int elapsed_us);
      ("result", result);
    ]

let handle_mine t ~admitted_at ~session ~nocache ~timeout_ms ~min_support =
  let info =
    with_lock t (fun () ->
        match Session.find t.registry session with
        | None ->
          Error
            (Protocol.error ~kind:"unknown_session"
               (Printf.sprintf "unknown session %S (%d open)" session
                  (Session.count t.registry)))
        | Some s ->
          Ok (s.Session.db, s.Session.epoch, s.Session.ccs_fingerprint, s.Session.scenario))
  in
  match info with
  | Error e -> e
  | Ok (db, epoch, fingerprint, sc) ->
    let config =
      {
        Ric_mining.Mine.default with
        Ric_mining.Mine.min_support = Option.value ~default:1 min_support;
      }
    in
    let config_fp = Printf.sprintf "s%d" config.Ric_mining.Mine.min_support in
    let key = Cache.mine_key ~session ~fingerprint ~epoch ~config:config_fp in
    let hit = if nocache then None else with_lock t (fun () -> Cache.find t.cache key) in
    (match hit with
     | Some e ->
       mine_response ~session ~epoch ~cached:true ~elapsed_us:e.Cache.elapsed_us
         e.Cache.result
     | None ->
       Faults.fire "decide";
       let clock = clock_of_timeout ?admitted_at timeout_ms in
       let t0 = Metrics.now_s () in
       let r =
         Ric_mining.Mine.run ~config ~budget:clock
           ~db_schema:sc.Scenario.db_schema
           ~master_schema:sc.Scenario.master_schema ~db ~master:sc.Scenario.master
           ()
       in
       if r.Ric_mining.Mine.timed_out <> None then note_timeout t;
       let result = mine_json r in
       let elapsed = elapsed_us t0 in
       (* a timed-out pass is partial: answer with it, never cache it *)
       if (not nocache) && r.Ric_mining.Mine.timed_out = None then
         with_lock t (fun () ->
             match Session.find t.registry session with
             | Some s when s.Session.epoch = epoch ->
               Cache.store t.cache key
                 {
                   Cache.kind = Cache.K_mine;
                   query = config_fp;
                   result;
                   rcdp = None;
                   elapsed_us = elapsed;
                   revalidated = false;
                 }
             | _ -> ());
       mine_response ~session ~epoch ~cached:false ~elapsed_us:elapsed result)

(* ------------------------------------------------------------------ *)
(* insert: apply, then migrate the old epoch's cache entries *)

(* [(Δ, t)] is still a counterexample over the grown, partially closed
   [D′] iff [(D′ ∪ Δ, Dm) ⊨ V], [t ∈ Q(D′ ∪ Δ)] and [t ∉ Q(D′)].  [D′]
   satisfies V, so the first is a delta check over Δ's tuples; the
   other two are head-bound probes over [D′]'s relations, whose
   indexes the first probe builds for every revalidation of the write. *)
let revalidate_cex s (cex : Rcdp.counterexample) q =
  let chk = Session.checker s and base = s.Session.db in
  let delta = cex.Rcdp.cex_extension in
  let added =
    Database.fold
      (fun rel r acc -> Relation.fold (fun tu acc -> (rel, tu) :: acc) r acc)
      delta []
  in
  Checker.check_adds chk ~base ~delta ~added = None
  && Checker.mem_answer chk ~base ~delta q cex.Rcdp.cex_answer
  && not
       (Checker.mem_answer chk ~base
          ~delta:(Database.empty (Database.schema base))
          q cex.Rcdp.cex_answer)

(* After a successful mutation at [old_epoch] (caller holds the
   service lock): migrate that epoch's cache entries — carry monotone
   Complete verdicts, revalidate counterexamples, drop the rest — and
   build the common insert reply. *)
let inserted_response t ~session ~old_epoch ~inserted s =
  let new_epoch = s.Session.epoch in
  let fingerprint = s.Session.ccs_fingerprint in
  let old_prefix = Cache.epoch_prefix ~session ~epoch:old_epoch in
  let entries =
    Cache.fold_prefix t.cache ~prefix:old_prefix
      (fun acc key e -> (key, e) :: acc)
      []
  in
  List.iter (fun (key, _) -> Cache.remove t.cache key) entries;
  let carried = ref 0 and revalidated = ref 0 and dropped = ref 0 in
  if Session.partially_closed s then
    List.iter
      (fun (_, e) ->
        let keep ~why =
          let key =
            match e.Cache.kind with
            | Cache.K_rcdp ->
              Cache.rcdp_key ~session ~fingerprint ~epoch:new_epoch
                ~query:e.Cache.query
            | Cache.K_audit ->
              Cache.audit_key ~session ~fingerprint ~epoch:new_epoch
                ~query:e.Cache.query
            | Cache.K_rcqp -> assert false (* not epoch-keyed *)
            | Cache.K_mine -> assert false (* never kept: dropped below *)
          in
          Cache.store t.cache key { e with Cache.revalidated = true };
          Cache.note_carried t.cache;
          incr why
        in
        match (e.Cache.kind, e.Cache.rcdp) with
        | Cache.K_rcdp, Some Rcdp.Complete ->
          (* completeness is monotone under admissible growth:
             every partially closed D″ ⊇ D′ extends D too *)
          keep ~why:carried
        | Cache.K_rcdp, Some (Rcdp.Incomplete cex) ->
          (match Session.find_query s e.Cache.query with
           | Some q
             when revalidate_cex s cex q ->
             keep ~why:revalidated
           | _ -> incr dropped)
        | _ -> incr dropped)
      entries
  else dropped := List.length entries;
  Cache.note_dropped t.cache !dropped;
  ok
    ([
       ("session", Json.Str session);
       ("epoch", Json.Int new_epoch);
       ("inserted", Json.Int inserted);
       ("partially_closed", Json.Bool (Session.partially_closed s));
       ( "cache",
         Json.Obj
           [
             ("carried", Json.Int !carried);
             ("revalidated", Json.Int !revalidated);
             ("dropped", Json.Int !dropped);
           ] );
     ]
    @
    match s.Session.closure_violation with
    | Some v -> [ ("violation", Report.violation v) ]
    | None -> [])

let handle_insert t ~session ~rel ~rows =
  with_lock t (fun () ->
      match Session.find t.registry session with
      | None ->
        Protocol.error ~kind:"unknown_session" (Printf.sprintf "unknown session %S" session)
      | Some s ->
        let old_epoch = s.Session.epoch in
        (match Session.insert s ~rel ~rows with
         | Error msg -> Protocol.error ~kind:"bad_insert" msg
         | Ok () ->
           journal_entry t (Journal.Inserted { id = session; rel; rows });
           inserted_response t ~session ~old_epoch ~inserted:(List.length rows) s))

let handle_insert_bulk t ~session ~batches =
  with_lock t (fun () ->
      match Session.find t.registry session with
      | None ->
        Protocol.error ~kind:"unknown_session" (Printf.sprintf "unknown session %S" session)
      | Some s ->
        let old_epoch = s.Session.epoch in
        (match Session.insert_batches s ~batches with
         | Error msg -> Protocol.error ~kind:"bad_insert" msg
         | Ok () ->
           (* one journal append and one cache migration for the whole
              batch — the per-request unit costs insert paid per call *)
           journal_entry t (Journal.Inserted_bulk { id = session; batches });
           let inserted =
             List.fold_left (fun n (_, rows) -> n + List.length rows) 0 batches
           in
           inserted_response t ~session ~old_epoch ~inserted s))

(* ------------------------------------------------------------------ *)
(* the rest *)

let handle_close t ~session =
  with_lock t (fun () ->
      let existed = Session.close t.registry session in
      let purged =
        Cache.remove_prefix t.cache ~prefix:(Cache.session_prefix ~session)
      in
      if existed then begin
        journal_entry t (Journal.Closed { id = session });
        ok [ ("closed", Json.Str session); ("purged", Json.Int purged) ]
      end
      else
        Protocol.error ~kind:"unknown_session" (Printf.sprintf "unknown session %S" session))

(* the registry as structured JSON, for the [stats] op.  Histogram sums
   are reported in integer microseconds: the wire format has no float. *)
let json_of_metric (s : Metrics.sample) =
  let base ty =
    [
      ("name", Json.Str s.Metrics.name);
      ("labels", Json.Obj (List.map (fun (k, v) -> (k, Json.Str v)) s.Metrics.labels));
      ("type", Json.Str ty);
    ]
  in
  match s.Metrics.value with
  | Metrics.Counter n -> Json.Obj (base "counter" @ [ ("value", Json.Int n) ])
  | Metrics.Gauge n -> Json.Obj (base "gauge" @ [ ("value", Json.Int n) ])
  | Metrics.Histogram h ->
    let bucket le count =
      Json.Obj [ ("le", Json.Str le); ("count", Json.Int count) ]
    in
    Json.Obj
      (base "histogram"
      @ [
          ("count", Json.Int h.Metrics.count);
          ("sum_us", Json.Int (int_of_float (h.Metrics.sum *. 1e6)));
          ( "buckets",
            Json.List
              (Array.to_list
                 (Array.map
                    (fun (le, c) -> bucket (Printf.sprintf "%.9g" le) c)
                    h.Metrics.buckets)
              @ [ bucket "+Inf" h.Metrics.inf_count ]) );
        ])

let hit_rate_str ~hits ~misses =
  let lookups = hits + misses in
  if lookups = 0 then "0.000"
  else Printf.sprintf "%.3f" (float_of_int hits /. float_of_int lookups)

let handle_stats t =
  (* snapshot before taking the service lock: pull gauges take it *)
  let metrics = Json.List (List.map json_of_metric (Metrics.snapshot ())) in
  with_lock t (fun () ->
      let sessions =
        List.map
          (fun s ->
            Json.Obj
              ([
                 ("id", Json.Str s.Session.id);
                 ("epoch", Json.Int s.Session.epoch);
                 ("tuples", Json.Int (Database.total_tuples s.Session.db));
                 ("partially_closed", Json.Bool (Session.partially_closed s));
               ]
              @
              match s.Session.name with
              | Some n -> [ ("name", Json.Str n) ]
              | None -> []))
          (List.sort
             (fun a b -> compare a.Session.id b.Session.id)
             (Session.list t.registry))
      in
      let cs = Cache.stats t.cache in
      let ops =
        Hashtbl.fold (fun op n acc -> (op, Json.Int n) :: acc) t.op_counts []
        |> List.sort compare
      in
      ok
        ([
           ("uptime_s", Json.Int (int_of_float (Metrics.now_s () -. t.started_at)));
           ("requests", Json.Int t.requests);
           ("timeouts", Json.Int t.timeouts);
           ("ops", Json.Obj ops);
           ("sessions", Json.List sessions);
           ( "cache",
             Json.Obj
               [
                 ("entries", Json.Int cs.Cache.entries);
                 ("hits", Json.Int cs.Cache.hits);
                 ("misses", Json.Int cs.Cache.misses);
                 ( "hit_rate",
                   Json.Str (hit_rate_str ~hits:cs.Cache.hits ~misses:cs.Cache.misses) );
                 ("carried", Json.Int cs.Cache.carried);
                 ("dropped", Json.Int cs.Cache.dropped);
               ] );
           ("metrics", metrics);
         ]))

(* ------------------------------------------------------------------ *)
(* crash recovery *)

type recovery = {
  sessions_restored : int;
  entries_replayed : int;
  entries_failed : int;
  torn_tail : bool;
  retained : Journal.entry list;
}

let recover t path =
  let replay = Journal.replay_file path in
  let failed = ref replay.Journal.skipped in
  let replay_insert id insert =
    match Session.find t.registry id with
    | Some s ->
      (match insert s with
       | Ok () -> ()
       | Error _ -> incr failed)
    | None -> incr failed
  in
  with_lock t (fun () ->
      List.iter
        (fun entry ->
          match entry with
          | Journal.Opened { id; name; source } -> (
            match Scenario.parse source with
            | scenario -> ignore (Session.open_scenario t.registry ~id ?name scenario)
            | exception Scenario.Parse_error _ -> incr failed)
          | Journal.Inserted { id; rel; rows } ->
            replay_insert id (fun s -> Session.insert s ~rel ~rows)
          | Journal.Inserted_bulk { id; batches } ->
            replay_insert id (fun s -> Session.insert_batches s ~batches)
          | Journal.Closed { id } -> ignore (Session.close t.registry id))
        replay.Journal.entries);
  let retained =
    (* drop entries of sessions that were closed before the crash, so
       the compacted journal only re-plays what is still live; keeping
       the insert records verbatim preserves each session's epoch *)
    with_lock t (fun () ->
        List.filter
          (function
            | Journal.Closed _ -> false
            | Journal.Opened { id; _ }
            | Journal.Inserted { id; _ }
            | Journal.Inserted_bulk { id; _ } ->
              Session.find t.registry id <> None)
          replay.Journal.entries)
  in
  {
    sessions_restored = with_lock t (fun () -> Session.count t.registry);
    entries_replayed = List.length replay.Journal.entries;
    entries_failed = !failed;
    torn_tail = replay.Journal.torn_tail;
    retained;
  }

(* the correlation id the typed request carries (decide ops only; other
   ops keep theirs at the JSON level, where the transport reads it) *)
let req_id_of_request = function
  | Protocol.Rcdp { req_id; _ }
  | Protocol.Rcqp { req_id; _ }
  | Protocol.Audit { req_id; _ } ->
    req_id
  | _ -> None

let handle_dump t =
  match t.flight_path with
  | None ->
    Protocol.error ~kind:"no_flight_recorder"
      "no flight-recorder path configured (direct service caller?)"
  | Some path -> (
    match Ric_obs.Recorder.dump path with
    | n -> ok [ ("path", Json.Str path); ("events", Json.Int n) ]
    | exception Sys_error msg -> Protocol.error ~kind:"io_error" msg)

let rec handle t ?admitted_at req =
  let op = Protocol.op_name req in
  with_lock t (fun () ->
      t.requests <- t.requests + 1;
      Hashtbl.replace t.op_counts op
        (1 + Option.value ~default:0 (Hashtbl.find_opt t.op_counts op)));
  (match List.assoc_opt op op_counters with
   | Some c -> Metrics.incr c
   | None -> ());
  let req_id = req_id_of_request req in
  let dispatch () =
    Trace.with_span "server.op" @@ fun sp ->
    Trace.set_str sp "op" op;
    (match req_id with
     | Some rid -> Trace.set_str sp "req_id" rid
     | None -> ());
    dispatch_req t ?admitted_at req
  in
  let reply =
    match List.assoc_opt op op_histograms with
    | Some h -> Metrics.time h dispatch
    | None -> dispatch ()
  in
  (* echo the correlation id so a client can match pipelined replies *)
  match req_id with
  | Some rid -> Protocol.with_req_id reply rid
  | None -> reply

and dispatch_req t ?admitted_at req =
  match req with
  | Protocol.Ping -> ok [ ("pong", Json.Bool true) ]
  | Protocol.Open { path; source; name } -> handle_open t ~path ~source ~name
  (* the "search" field is accepted for compatibility and ignored: the
     valuation search is always sequential *)
  | Protocol.Rcdp { session; query; nocache; timeout_ms; search = _; req_id; explain }
    ->
    handle_rcdp t ~admitted_at ~session ~query ~nocache ~timeout_ms ~req_id ~explain
  | Protocol.Rcqp { session; query; nocache; timeout_ms; search = _; req_id; explain }
    ->
    handle_rcqp t ~admitted_at ~session ~query ~nocache ~timeout_ms ~req_id ~explain
  | Protocol.Audit { session; query; nocache; timeout_ms; search = _; req_id; explain }
    ->
    handle_audit t ~admitted_at ~session ~query ~nocache ~timeout_ms ~req_id ~explain
  | Protocol.Mine { session; nocache; timeout_ms; min_support; workers = _ } ->
    handle_mine t ~admitted_at ~session ~nocache ~timeout_ms ~min_support
  | Protocol.Insert { session; rel; rows } -> handle_insert t ~session ~rel ~rows
  | Protocol.Insert_bulk { session; batches } ->
    handle_insert_bulk t ~session ~batches
  | Protocol.Close { session } -> handle_close t ~session
  | Protocol.Stats -> handle_stats t
  | Protocol.Dump -> handle_dump t
  | Protocol.Shutdown ->
    Atomic.set t.stop true;
    ok [ ("stopping", Json.Bool true) ]

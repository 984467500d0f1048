(* Tests for the ric_obs telemetry layer: histogram bucket boundaries,
   concurrent counter increments from two domains, the Prometheus text
   exposition, the trace JSONL round-trip through the project's own
   JSON parser plus the offline summarizer, and the guarantee that
   turning tracing on changes no verdict on any scenario file. *)

open Ric_obs
module Scenario = Ric_text.Scenario
module Trace_summary = Ric_text.Trace_summary
open Ric_complete

(* The registry is process-global and never resets, so every test
   registers uniquely-named metrics and asserts on deltas. *)

(* ------------------------------------------------------------------ *)
(* Metrics *)

let test_counter_basics () =
  let c = Metrics.counter ~help:"test" "ric_test_counter_basics_total" in
  let v0 = Metrics.counter_value c in
  Metrics.incr c;
  Metrics.add c 41;
  Alcotest.(check int) "incr + add" (v0 + 42) (Metrics.counter_value c);
  let again = Metrics.counter ~help:"test" "ric_test_counter_basics_total" in
  Metrics.incr again;
  Alcotest.(check int) "re-registration returns the same counter" (v0 + 43)
    (Metrics.counter_value c);
  (match Metrics.gauge_fn "ric_test_counter_basics_total" (fun () -> 0) with
   | () -> Alcotest.fail "kind clash must be rejected"
   | exception Invalid_argument _ -> ());
  match Metrics.counter "not a metric name" with
  | (_ : Metrics.counter) -> Alcotest.fail "malformed name must be rejected"
  | exception Invalid_argument _ -> ()

let test_labels_distinguish () =
  let a = Metrics.counter ~labels:[ ("op", "a") ] "ric_test_labeled_total" in
  let b = Metrics.counter ~labels:[ ("op", "b") ] "ric_test_labeled_total" in
  Metrics.incr a;
  Alcotest.(check int) "labels separate series" 0 (Metrics.counter_value b);
  (* label order must not matter for identity *)
  let a' =
    Metrics.counter
      ~labels:[ ("x", "1"); ("op", "a") ]
      "ric_test_label_order_total"
  and a'' =
    Metrics.counter
      ~labels:[ ("op", "a"); ("x", "1") ]
      "ric_test_label_order_total"
  in
  Metrics.incr a';
  Alcotest.(check int) "sorted label identity" 1 (Metrics.counter_value a'')

let test_histogram_buckets () =
  let bounds = Metrics.bucket_bounds in
  Alcotest.(check int) "13 finite buckets" 13 (Array.length bounds);
  Alcotest.(check (float 1e-12)) "first bound is 1µs" 1e-6 bounds.(0);
  Array.iteri
    (fun i b ->
      if i > 0 then
        Alcotest.(check (float 1e-9))
          (Printf.sprintf "bound %d is 4x bound %d" i (i - 1))
          (4. *. bounds.(i - 1))
          b)
    bounds;
  let h = Metrics.histogram ~help:"test" "ric_test_hist_seconds" in
  (* one observation exactly on a bound (inclusive: le), one inside a
     bucket, one beyond every bound, and a garbage value *)
  Metrics.observe h 1e-6;
  Metrics.observe h 5e-6;
  (* (4µs, 16µs] *)
  Metrics.observe h 1e9;
  Metrics.observe h Float.nan;
  (* clamped to 0, lands in the first bucket *)
  let snap =
    match
      List.find_opt
        (fun s -> s.Metrics.name = "ric_test_hist_seconds")
        (Metrics.snapshot ())
    with
    | Some { Metrics.value = Metrics.Histogram snap; _ } -> snap
    | _ -> Alcotest.fail "histogram missing from snapshot"
  in
  Alcotest.(check int) "count" 4 snap.Metrics.count;
  (* the +Inf bucket is cumulative like the rest: it equals the count *)
  Alcotest.(check int) "+Inf is cumulative" 4 snap.Metrics.inf_count;
  let cumulative_at bound =
    match
      Array.find_opt (fun (b, _) -> b = bound) snap.Metrics.buckets
    with
    | Some (_, n) -> n
    | None -> Alcotest.failf "no bucket with bound %g" bound
  in
  (* le semantics: the 1µs observation (and the clamped NaN) sit in the
     first bucket, cumulative counts grow from there *)
  Alcotest.(check int) "le 1µs" 2 (cumulative_at bounds.(0));
  Alcotest.(check int) "le 4µs" 2 (cumulative_at bounds.(1));
  Alcotest.(check int) "le 16µs" 3 (cumulative_at bounds.(2));
  let top = cumulative_at bounds.(Array.length bounds - 1) in
  Alcotest.(check int) "le top bound" 3 top;
  Alcotest.(check int) "one observation overflowed every finite bucket" 1
    (snap.Metrics.count - top);
  Alcotest.(check bool) "sum includes the large outlier" true
    (snap.Metrics.sum >= 1e9)

let test_concurrent_increments () =
  let c = Metrics.counter "ric_test_concurrent_total" in
  let h = Metrics.histogram "ric_test_concurrent_seconds" in
  let per_domain = 50_000 in
  let worker () =
    for _ = 1 to per_domain do
      Metrics.incr c
    done;
    for _ = 1 to 1000 do
      Metrics.observe h 1e-5
    done
  in
  let d1 = Domain.spawn worker and d2 = Domain.spawn worker in
  Domain.join d1;
  Domain.join d2;
  Alcotest.(check int) "no lost counter increments" (2 * per_domain)
    (Metrics.counter_value c);
  match
    List.find_opt
      (fun s -> s.Metrics.name = "ric_test_concurrent_seconds")
      (Metrics.snapshot ())
  with
  | Some { Metrics.value = Metrics.Histogram snap; _ } ->
    Alcotest.(check int) "no lost observations" 2000 snap.Metrics.count
  | _ -> Alcotest.fail "histogram missing from snapshot"

let test_gauge_fn () =
  let v = ref 7 in
  Metrics.gauge_fn ~help:"test" "ric_test_pull_gauge" (fun () -> !v);
  let find () =
    match
      List.find_opt
        (fun s -> s.Metrics.name = "ric_test_pull_gauge")
        (Metrics.snapshot ())
    with
    | Some { Metrics.value = Metrics.Gauge g; _ } -> g
    | _ -> Alcotest.fail "pull gauge missing from snapshot"
  in
  Alcotest.(check int) "pull gauge sampled" 7 (find ());
  v := 9;
  Alcotest.(check int) "resampled at snapshot" 9 (find ());
  (* replacement: the latest registration wins *)
  Metrics.gauge_fn "ric_test_pull_gauge" (fun () -> 123);
  Alcotest.(check int) "re-registration replaces" 123 (find ());
  (* a raising pull function must not poison the scrape *)
  Metrics.gauge_fn "ric_test_pull_gauge_bad" (fun () -> failwith "boom");
  ignore (Metrics.to_prometheus ())

let test_prometheus_exposition () =
  let c =
    Metrics.counter ~help:{|weird "help" with \ and
newline|} ~labels:[ ("mode", {|se"q\|}) ] "ric_test_promtext_total"
  in
  Metrics.add c 5;
  ignore (Metrics.histogram ~help:"h" "ric_test_promtext_seconds");
  let text = Metrics.to_prometheus () in
  let has needle =
    let nn = String.length needle and nt = String.length text in
    let rec go i =
      i + nn <= nt && (String.sub text i nn = needle || go (i + 1))
    in
    go 0
  in
  List.iter
    (fun needle ->
      Alcotest.(check bool) (Printf.sprintf "exposition contains %S" needle) true
        (has needle))
    [
      (* HELP escapes backslash and newline but leaves quotes raw *)
      "# HELP ric_test_promtext_total weird \"help\" with \\\\ and\\nnewline";
      "# TYPE ric_test_promtext_total counter";
      {|ric_test_promtext_total{mode="se\"q\\"} 5|};
      "# TYPE ric_test_promtext_seconds histogram";
      {|ric_test_promtext_seconds_bucket{le="1e-06"} 0|};
      {|ric_test_promtext_seconds_bucket{le="+Inf"} 0|};
      "ric_test_promtext_seconds_sum 0";
      "ric_test_promtext_seconds_count 0";
    ];
  (* every line is a comment or a sample — no blank/garbage lines *)
  List.iter
    (fun line ->
      if line <> "" then
        Alcotest.(check bool)
          (Printf.sprintf "line %S well-formed" line)
          true
          (String.length line > 0
          && (line.[0] = '#'
             || String.contains line ' ' (* sample: name/labels SP value *))))
    (String.split_on_char '\n' text)

(* ------------------------------------------------------------------ *)
(* Trace: JSONL round-trip and summarize *)

let with_trace_file f =
  let path = Filename.temp_file "ric_obs_test" ".jsonl" in
  Fun.protect
    ~finally:(fun () ->
      Trace.close ();
      try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

let test_trace_roundtrip () =
  with_trace_file @@ fun path ->
  Alcotest.(check bool) "disabled by default" false (Trace.enabled ());
  (* spans on the null sink must be free no-ops *)
  let sp = Trace.start "ignored" in
  Trace.set_int sp "k" 1;
  Trace.finish sp;
  Trace.open_file path;
  Alcotest.(check bool) "enabled after open" true (Trace.enabled ());
  Trace.with_span "outer" (fun outer ->
      Trace.set_int outer "steps" 17;
      Trace.set_int outer "steps" 42;
      (* last write wins *)
      Trace.set_str outer "quoting" "a\"b\\c\nd";
      Trace.with_span "inner" (fun inner -> Trace.set_bool inner "found" true));
  (match Trace.with_span "failing" (fun _ -> failwith "boom") with
   | () -> Alcotest.fail "with_span must re-raise"
   | exception Failure _ -> ());
  Alcotest.(check int) "three spans written" 3 (Trace.spans_written ());
  Trace.close ();
  let { Trace_summary.spans; malformed } = Trace_summary.load path in
  Alcotest.(check int) "no malformed lines" 0 malformed;
  Alcotest.(check int) "three spans loaded" 3 (List.length spans);
  let find name =
    match List.find_opt (fun sp -> sp.Trace_summary.name = name) spans with
    | Some sp -> sp
    | None -> Alcotest.failf "span %s missing" name
  in
  let outer = find "outer" and inner = find "inner" and failing = find "failing" in
  Alcotest.(check int) "outer is a root" 0 outer.Trace_summary.parent;
  Alcotest.(check int) "inner parented under outer" outer.Trace_summary.id
    inner.Trace_summary.parent;
  Alcotest.(check bool) "last attr write wins" true
    (List.assoc_opt "steps" outer.Trace_summary.attrs
    = Some (Ric_text.Json.Int 42));
  Alcotest.(check bool) "string attrs survive escaping" true
    (List.assoc_opt "quoting" outer.Trace_summary.attrs
    = Some (Ric_text.Json.Str "a\"b\\c\nd"));
  Alcotest.(check bool) "bool attr round-trips" true
    (List.assoc_opt "found" inner.Trace_summary.attrs
    = Some (Ric_text.Json.Bool true));
  Alcotest.(check bool) "exception recorded" true
    (match List.assoc_opt "error" failing.Trace_summary.attrs with
    | Some (Ric_text.Json.Str s) -> s <> ""
    | _ -> false);
  Alcotest.(check bool) "inner nested in outer's window" true
    (inner.Trace_summary.start_us >= outer.Trace_summary.start_us
    && inner.Trace_summary.start_us + inner.Trace_summary.dur_us
       <= outer.Trace_summary.start_us + outer.Trace_summary.dur_us + 1)

let test_trace_summarize () =
  (* a hand-written fixture with known durations, a torn line, and a
     steps attribute per root *)
  let path = Filename.temp_file "ric_obs_fixture" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let oc = open_out path in
      output_string oc
        {|{"id":1,"parent":0,"name":"decide","start_us":100,"dur_us":900,"attrs":{"steps":9000}}
{"id":2,"parent":1,"name":"disjunct","start_us":150,"dur_us":700,"attrs":{}}
{"id":3,"parent":0,"name":"decide","start_us":2000,"dur_us":100,"attrs":{"steps":500}}
{"id":4,"parent":99,"name":"orphan","start_us":2500,"dur_us":10,"attrs":{}}
this line is torn
|};
      close_out oc;
      let { Trace_summary.spans; malformed } = Trace_summary.load path in
      Alcotest.(check int) "torn line counted" 1 malformed;
      Alcotest.(check int) "four spans" 4 (List.length spans);
      let s = Trace_summary.summarize ~top:2 spans in
      Alcotest.(check int) "top bounds slowest" 2 (List.length s.Trace_summary.slowest);
      (match s.Trace_summary.slowest with
       | first :: _ ->
         Alcotest.(check int) "slowest is the 900µs decide" 1 first.Trace_summary.id
       | [] -> Alcotest.fail "no slowest spans");
      (* an orphan (unknown parent) counts as a root *)
      Alcotest.(check int) "roots" 3 s.Trace_summary.roots;
      Alcotest.(check int) "wall clock spans the file" 2410 s.Trace_summary.wall_us;
      let phase name =
        match
          List.find_opt
            (fun r -> r.Trace_summary.ph_name = name)
            s.Trace_summary.phases
        with
        | Some r -> r
        | None -> Alcotest.failf "phase %s missing" name
      in
      Alcotest.(check int) "decide phase total" 1000 (phase "decide").Trace_summary.ph_total_us;
      Alcotest.(check int) "decide phase steps" 9500 (phase "decide").Trace_summary.ph_steps;
      Alcotest.(check int) "decide phase max" 900 (phase "decide").Trace_summary.ph_max_us;
      (* children: the 700µs disjunct hangs under span 1 *)
      let root = List.find (fun sp -> sp.Trace_summary.id = 1) spans in
      Alcotest.(check int) "one child under the slow decide" 1
        (List.length (Trace_summary.children spans root));
      (* the report renders without raising *)
      let buf = Buffer.create 256 in
      Trace_summary.pp (Format.formatter_of_buffer buf) ~malformed spans s;
      Alcotest.(check bool) "report nonempty" true (Buffer.length buf > 0))

(* ------------------------------------------------------------------ *)
(* Tracing must not change verdicts *)

let scenarios_dir () =
  let rec up d n =
    if n = 0 then None
    else
      let cand = Filename.concat d "scenarios" in
      if Sys.file_exists cand && Sys.is_directory cand then Some cand
      else up (Filename.dirname d) (n - 1)
  in
  match up (Sys.getcwd ()) 6 with
  | Some d -> d
  | None -> Alcotest.fail "scenarios/ not found upward of cwd"

let rcdp_label ~trace (s : Scenario.t) q =
  let clock = Budget.create ~max_steps:20_000 () in
  ignore trace;
  match
    Rcdp.decide ~clock ~schema:s.Scenario.db_schema ~master:s.Scenario.master
      ~ccs:(Scenario.all_ccs s) ~db:s.Scenario.db q
  with
  | Rcdp.Complete -> "complete"
  | Rcdp.Incomplete _ -> "incomplete"
  | exception Rcdp.Unsupported _ -> "unsupported"
  | exception Rcdp.Not_partially_closed _ -> "not_partially_closed"
  | exception Budget.Exhausted reason -> "timeout:" ^ Budget.reason_name reason

let test_tracing_changes_no_verdict () =
  with_trace_file @@ fun path ->
  let dir = scenarios_dir () in
  let files =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".ric")
    |> List.sort compare
  in
  Alcotest.(check bool) "found scenario files" true (files <> []);
  List.iter
    (fun file ->
      let s = Scenario.load (Filename.concat dir file) in
      List.iter
        (fun (qname, q) ->
          let off = rcdp_label ~trace:false s q in
          Trace.open_file path;
          let on = rcdp_label ~trace:true s q in
          let written = Trace.spans_written () in
          Trace.close ();
          Alcotest.(check string)
            (Printf.sprintf "%s/%s verdict unchanged by tracing" file qname)
            off on;
          Alcotest.(check bool)
            (Printf.sprintf "%s/%s traced run wrote spans" file qname)
            true (written > 0))
        s.Scenario.queries)
    files

(* ------------------------------------------------------------------ *)
(* Profile: the explain accumulator *)

let test_profile_accumulator () =
  let p = Profile.create () in
  let s = Profile.start_search p ~names:[| "R"; "S" |] ~sources:[| "adom"; "adom" |] in
  Profile.step s 0;
  Profile.step s 0;
  Profile.step s 1;
  Profile.prune s 1 (Some "cc1");
  Profile.prune s 1 None;
  Profile.finish_search p s;
  (* a second search with the same plan merges, not replaces *)
  let s2 = Profile.start_search p ~names:[| "R"; "S" |] ~sources:[| "adom"; "adom" |] in
  Profile.step s2 0;
  Profile.prune s2 0 (Some "cc1");
  Profile.finish_search p s2;
  Profile.bump p "pool_steps" 7;
  Profile.bump p "e2_nodes" 3;
  Profile.note p "mode" "seq";
  Profile.note p "mode" "par:2";
  let snap = Profile.snapshot p in
  let level i =
    match
      List.find_opt (fun r -> r.Profile.lv_index = i) snap.Profile.levels
    with
    | Some r -> r
    | None -> Alcotest.failf "level %d missing" i
  in
  Alcotest.(check string) "level 0 name" "R" (level 0).Profile.lv_name;
  Alcotest.(check int) "level 0 steps merged" 3 (level 0).Profile.lv_steps;
  Alcotest.(check int) "level 0 prunes" 1 (level 0).Profile.lv_prunes;
  Alcotest.(check int) "level 1 steps" 1 (level 1).Profile.lv_steps;
  Alcotest.(check int) "level 1 prunes (named + anonymous)" 2
    (level 1).Profile.lv_prunes;
  Alcotest.(check (list (pair string int))) "constraint attribution" [ ("cc1", 2) ]
    snap.Profile.constraints;
  Alcotest.(check (option int)) "counter bump" (Some 7)
    (List.assoc_opt "pool_steps" snap.Profile.counters);
  Alcotest.(check (option string)) "note last-write-wins" (Some "par:2")
    (List.assoc_opt "mode" snap.Profile.notes);
  (* e2_nodes is a diagnostic counter, not a tick site: only level
     steps and *_steps counters count as attributed *)
  Alcotest.(check int) "attributed = levels + *_steps counters" (3 + 1 + 7)
    (Profile.attributed_steps snap)

(* Exact parity with the budget: in the CQ decide paths every
   [Budget.tick] is mirrored into the profile (search levels, pool,
   witness growth), so the attributed steps equal [Budget.steps], on
   an Incomplete query (QJ: the search stops at the first witness) and
   a Complete one (QU: it walks the whole tree). *)

let parity_source =
  {|
  schema R(k, w).
  schema S(k, t).
  master M(k, w).
  master N(k).
  rows R { (m0, v0) (m1, v1) }.
  rows S { (m0, a) }.
  rows M { (m0, v0) (m1, v1) (m2, v2) (m3, v3) (m4, v4) (m5, v5) }.
  rows N { (m0) (m1) (m2) }.
  query QJ(k) :- R(k, w), S(k, t).
  constraint BR(k, w) :- R(k, w) => M[0, 1].
  constraint BS(k) :- S(k, t) => N[0].
  schema U(k).
  rows U { (m0) (m1) (m2) }.
  query QU(k) :- U(k), U(j).
  constraint BU(k) :- U(k) => N[0].
|}

let rcdp_profiled s q =
  let profile = Profile.create () in
  let clock = Budget.create () in
  let verdict =
    match
      Rcdp.decide ~clock ~profile ~schema:s.Scenario.db_schema
        ~master:s.Scenario.master ~ccs:(Scenario.all_ccs s)
        ~db:s.Scenario.db q
    with
    | Rcdp.Complete -> "complete"
    | Rcdp.Incomplete _ -> "incomplete"
  in
  (verdict, Budget.steps clock, Profile.snapshot profile)

let test_profile_budget_parity () =
  let s = Scenario.parse parity_source in
  let query name =
    match Scenario.find_query s name with
    | Some q -> q
    | None -> Alcotest.failf "%s missing" name
  in
  let qj = query "QJ" and qu = query "QU" in
  let verdict, steps, snap = rcdp_profiled s qj in
  Alcotest.(check string) "QJ verdict unchanged" "incomplete" verdict;
  Alcotest.(check int) "QJ attributed steps = budget steps" steps
    (Profile.attributed_steps snap);
  let verdict, steps, snap = rcdp_profiled s qu in
  Alcotest.(check bool) "the search did real work" true (steps > 0);
  Alcotest.(check string) "QU verdict unchanged" "complete" verdict;
  Alcotest.(check int) "QU attributed steps = budget steps" steps
    (Profile.attributed_steps snap)

let test_profile_deterministic () =
  let s = Scenario.parse parity_source in
  let q = Option.get (Scenario.find_query s "QJ") in
  let _, steps1, snap1 = rcdp_profiled s q in
  let _, steps2, snap2 = rcdp_profiled s q in
  Alcotest.(check int) "steps deterministic" steps1 steps2;
  Alcotest.(check bool) "snapshot deterministic" true (snap1 = snap2)

(* Explain names where each level's candidates come from: QU's two U
   levels are drawn from BU, the IND on U; a level no generator CC
   covers sweeps the active domain. *)
let test_profile_level_sources () =
  let s = Scenario.parse parity_source in
  let qu = Option.get (Scenario.find_query s "QU") in
  let _, _, snap = rcdp_profiled s qu in
  Alcotest.(check (list (triple int string string)))
    "QU levels are drawn from BU"
    [ (0, "U", "BU"); (1, "U", "BU") ]
    (List.map
       (fun r -> (r.Profile.lv_index, r.Profile.lv_name, r.Profile.lv_source))
       snap.Profile.levels);
  let bare = Scenario.parse "schema T(k).\nrows T { (m0) }.\nquery QT(k) :- T(k).\n" in
  let _, _, snap =
    rcdp_profiled bare (Option.get (Scenario.find_query bare "QT"))
  in
  Alcotest.(check (list string)) "an unbounded level sweeps adom" [ "adom" ]
    (List.map (fun r -> r.Profile.lv_source) snap.Profile.levels)

let test_profile_rcqp_parity () =
  let s = Scenario.parse parity_source in
  let q = Option.get (Scenario.find_query s "QJ") in
  let profile = Profile.create () in
  let clock = Budget.create () in
  let (_ : Rcqp.verdict) =
    Rcqp.decide ~clock ~profile ~schema:s.Scenario.db_schema
      ~master:s.Scenario.master ~ccs:(Scenario.all_ccs s) q
  in
  let snap = Profile.snapshot profile in
  Alcotest.(check bool) "rcqp ticked" true (Budget.steps clock > 0);
  Alcotest.(check int) "rcqp attributed = budget steps" (Budget.steps clock)
    (Profile.attributed_steps snap)

(* ------------------------------------------------------------------ *)
(* Recorder: the flight-recorder ring *)

let dump_lines path =
  let ic = open_in path in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> ());
  close_in ic;
  List.rev !lines

let test_recorder_ring () =
  Recorder.set_capacity 16;
  let base = Recorder.recorded () in
  for i = 1 to 20 do
    Recorder.record ~kind:"request" ~req_id:(Printf.sprintf "r%d" i) ~conn:i
      "de\"tail\nline"
  done;
  Alcotest.(check int) "total recorded" (base + 20) (Recorder.recorded ());
  let evs = Recorder.events () in
  Alcotest.(check int) "ring keeps only the window" 16 (List.length evs);
  let seqs = List.map (fun e -> e.Recorder.seq) evs in
  Alcotest.(check (list int)) "oldest first, contiguous" (List.sort compare seqs) seqs;
  (match List.rev evs with
   | last :: _ -> Alcotest.(check string) "newest survives" "r20" last.Recorder.req_id
   | [] -> Alcotest.fail "ring empty");
  let path = Filename.temp_file "ric_flight" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let written = Recorder.dump path in
      Alcotest.(check int) "dump count" 16 written;
      let lines = dump_lines path in
      Alcotest.(check int) "one line per event" 16 (List.length lines);
      List.iter
        (fun line ->
          match Ric_text.Json.of_string_result line with
          | Error (msg, _, _) -> Alcotest.failf "dump line not JSON (%s): %s" msg line
          | Ok (Ric_text.Json.Obj fields) ->
            List.iter
              (fun k ->
                if not (List.mem_assoc k fields) then
                  Alcotest.failf "dump line lacks %S: %s" k line)
              [ "seq"; "t_us"; "kind"; "req_id"; "conn"; "detail" ];
            Alcotest.(check bool) "detail escaping survives" true
              (List.assoc "detail" fields = Ric_text.Json.Str "de\"tail\nline")
          | Ok _ -> Alcotest.failf "dump line not an object: %s" line)
        lines)

let test_recorder_concurrent () =
  Recorder.set_capacity 64;
  let base = Recorder.recorded () in
  let per_domain = 2000 in
  let worker tag () =
    for i = 1 to per_domain do
      Recorder.record ~kind:"request" ~req_id:(Printf.sprintf "%s%d" tag i) "x"
    done
  in
  let d1 = Domain.spawn (worker "a") and d2 = Domain.spawn (worker "b") in
  Domain.join d1;
  Domain.join d2;
  Alcotest.(check int) "no lost claims" (base + (2 * per_domain))
    (Recorder.recorded ());
  let path = Filename.temp_file "ric_flight_conc" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let written = Recorder.dump path in
      Alcotest.(check int) "full window dumped" 64 written;
      List.iter
        (fun line ->
          match Ric_text.Json.of_string_result line with
          | Ok (Ric_text.Json.Obj _) -> ()
          | _ -> Alcotest.failf "unparseable dump line under contention: %s" line)
        (dump_lines path))

(* ------------------------------------------------------------------ *)
(* Trace summarize: the --req-id subtree filter *)

let test_filter_req_id () =
  let span ~id ~parent ~name ?req_id () =
    {
      Trace_summary.id;
      parent;
      name;
      start_us = id * 10;
      dur_us = 5;
      attrs =
        (match req_id with
         | Some r -> [ ("req_id", Ric_text.Json.Str r) ]
         | None -> []);
    }
  in
  let spans =
    [
      span ~id:1 ~parent:0 ~name:"server.op" ~req_id:"a" ();
      span ~id:2 ~parent:1 ~name:"rcdp.decide" ();
      span ~id:3 ~parent:2 ~name:"search" ();
      span ~id:4 ~parent:0 ~name:"server.op" ~req_id:"b" ();
      span ~id:5 ~parent:4 ~name:"rcqp.decide" ();
      span ~id:6 ~parent:0 ~name:"unrelated" ();
    ]
  in
  let ids rid =
    Trace_summary.filter_req_id rid spans
    |> List.map (fun sp -> sp.Trace_summary.id)
    |> List.sort compare
  in
  Alcotest.(check (list int)) "request a: stamped root + descendants" [ 1; 2; 3 ]
    (ids "a");
  Alcotest.(check (list int)) "request b" [ 4; 5 ] (ids "b");
  Alcotest.(check (list int)) "unknown id matches nothing" [] (ids "zz")

let () =
  Alcotest.run "obs"
    [
      ( "metrics",
        [
          Alcotest.test_case "counter basics" `Quick test_counter_basics;
          Alcotest.test_case "labels" `Quick test_labels_distinguish;
          Alcotest.test_case "histogram buckets" `Quick test_histogram_buckets;
          Alcotest.test_case "two-domain increments" `Quick test_concurrent_increments;
          Alcotest.test_case "pull gauges" `Quick test_gauge_fn;
          Alcotest.test_case "prometheus exposition" `Quick test_prometheus_exposition;
        ] );
      ( "trace",
        [
          Alcotest.test_case "jsonl round-trip" `Quick test_trace_roundtrip;
          Alcotest.test_case "summarize fixture" `Quick test_trace_summarize;
          Alcotest.test_case "tracing changes no verdict" `Quick
            test_tracing_changes_no_verdict;
          Alcotest.test_case "req-id subtree filter" `Quick test_filter_req_id;
        ] );
      ( "profile",
        [
          Alcotest.test_case "accumulator" `Quick test_profile_accumulator;
          Alcotest.test_case "budget parity across modes" `Quick
            test_profile_budget_parity;
          Alcotest.test_case "deterministic snapshots" `Quick
            test_profile_deterministic;
          Alcotest.test_case "rcqp parity" `Quick test_profile_rcqp_parity;
          Alcotest.test_case "level sources" `Quick test_profile_level_sources;
        ] );
      ( "recorder",
        [
          Alcotest.test_case "ring + dump" `Quick test_recorder_ring;
          Alcotest.test_case "concurrent records" `Quick test_recorder_concurrent;
        ] );
    ]

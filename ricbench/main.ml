(* The ricd end-to-end benchmark.

     bash ricbench/run.sh --workload W --seed N --seconds S --trace 0|1

   run from the root of a checkout.  run.sh builds bin/ric.exe and this
   program; this program starts a fresh `ric serve` (Daemon.flags), opens
   and warms the workload's sessions, drives its seeded request sequence
   (Inputs) in a closed loop over one Unix-socket connection, checks
   every reply against a verdict computed in-process (Check), and prints
   a report whose last line is one JSON object.

   --trace 0 measures the end-to-end metrics over about S seconds' worth
   of requests.  Their times are the daemon's CPU times, read from the
   kernel's per-process CPU clock (Daemon.cpu_ns): on a virtual host
   shared with other tenants, wall-clock round trips stretch with the
   CPU time the hypervisor steals, by tens of percent between runs of
   the same code, and the CPU clock leaves steal out.  The report prints
   the wall-clock figures beside them.  --trace 1 drives a fixed prefix
   of the same sequence instead, so its exact counts repeat between runs
   of one seed, then replays that prefix in-process under harness spans
   and prints the per-layer metrics (Layers). *)

open Drive
module Json = Ric_text.Json
module Scenario = Ric_text.Scenario

(* ------------------------------------------------------------------ *)
(* Output *)

let nproc () =
  try
    Daemon.read_file "/proc/cpuinfo"
    |> String.split_on_char '\n'
    |> List.filter (fun l -> String.length l > 9 && String.sub l 0 9 = "processor")
    |> List.length
  with Sys_error _ -> 0

let describe (t : Inputs.t) =
  let tuples =
    List.fold_left
      (fun n p ->
        let sc = Scenario.load p in
        n + Ric_relational.Database.total_tuples sc.Scenario.db
        + Ric_relational.Database.total_tuples sc.Scenario.master)
      0 (List.sort_uniq compare t.Inputs.opens)
  in
  Printf.printf "workload %s  seed %d  nproc %d\n" (Inputs.workload_name t.Inputs.workload)
    t.Inputs.seed (nproc ());
  Printf.printf
    "inputs: %d sessions over %d distinct scenarios (%d generated, %d bytes), %d tuples; %d set-up requests, period %d\n"
    (List.length t.Inputs.opens)
    (List.length (List.sort_uniq compare t.Inputs.opens))
    (List.length t.Inputs.files)
    (List.fold_left (fun n (_, text) -> n + String.length text) 0 t.Inputs.files)
    tuples
    (List.length t.Inputs.opens + List.length t.Inputs.warm)
    t.Inputs.period;
  Printf.printf "daemon: %s serve %s, on CPU %d\n" Daemon.ric_exe (String.concat " " Daemon.flags)
    Daemon.cpu

let result_line ~correct ~attempted ~failed metrics =
  let m =
    List.map
      (fun (name, unit, v) ->
        Printf.sprintf "%S: {\"value\": %.12g, \"unit\": %S}" name v unit)
      metrics
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n" correct
    attempted failed (String.concat ", " m)

let failure_counts samples =
  let count f = List.length (List.filter (fun s -> s.fail = Some f) samples) in
  (count Error, count Shed, count Timeout, count Wrong, count Late)

let report_failures samples extra_wrong =
  let e, s, t, w, l = failure_counts samples in
  Printf.printf "checks: %d attempted; failed: %d errors, %d sheds, %d timeouts, %d wrong verdicts, %d late; %d wrong outside the measured phase\n"
    (List.length samples) e s t w l extra_wrong;
  (e + s + t + w + l, e = 0 && w = 0 && extra_wrong = 0)

(* ------------------------------------------------------------------ *)
(* --trace 0: end-to-end metrics *)

(* setup_s is the median of this many fresh set-ups per run. *)
let setups = 5

let untraced (t : Inputs.t) ~seconds =
  let refs = Hashtbl.create 256 in
  (* references for every distinct decide the run can send, before
     timing starts; bulk_update's later epochs depend on how far the run
     gets, so those are computed after it *)
  (match t.Inputs.workload with
   | Inputs.Bulk_update -> ()
   | _ ->
     let reqs = t.Inputs.warm @ List.init t.Inputs.period t.Inputs.measured in
     references t refs
       (List.filter_map
          (fun r -> if Check.is_decide r then Some (Check.key ~epoch:0 r, r) else None)
          reqs));
  let p = drive t ~setups ~stop_after:(Inputs.measured_count t ~seconds) in
  let extra_wrong = check_pass t refs p in
  let n = List.length p.measured in
  (* Each class's wall-clock round trips and their CPU cost, as a median
     and a tail; the CPU figures of all requests are the metrics. *)
  let line name cls =
    let ss = List.filter (fun s -> cls s.cls) p.measured in
    let wall = List.map (fun s -> ms s.rtt_ns) ss and cpu = List.map (fun s -> ms s.cpu_ns) ss in
    let cpu_tail, pct = tail cpu in
    if ss <> [] then
      Printf.printf
        "%s: n=%d  cpu p50 %.4f ms, tail %.4f ms at p%.3f (10 samples beyond)  wall p50 %.4f ms, tail %.4f ms\n"
        name (List.length ss) (median cpu) cpu_tail pct (median wall) (fst (tail wall));
    (median cpu, cpu_tail)
  in
  let cpu_p50, cpu_tail = line "all requests" (fun _ -> true) in
  List.iter
    (fun (name, c) -> ignore (line name (( = ) c)))
    [ ("decides", Decide); ("cached reads", Read); ("writes", Write) ];
  let d = delta p.stats in
  let wall_s =
    float_of_int (List.fold_left (fun _ s -> s.done_ns) p.start_ns p.measured - p.start_ns) /. 1e9
  in
  let successes = List.length (List.filter (fun s -> s.fail = None) p.measured) in
  Printf.printf "measured phase: %d requests in %.3f s wall, %.1f successful requests/s\n" n wall_s
    (float_of_int successes /. wall_s);
  Printf.printf
    "daemon: cache hits %d misses %d, search steps %d, sheds %d, cpu %.0f ms, VmHWM %d kB; host steal %.0f ms\n"
    (d "cache.hits") (d "cache.misses") (d "ric_search_steps_total") (d "ric_server_shed_total")
    p.cpu_ms p.hwm_kb p.steal_ms;
  Printf.printf "setup_s per set-up: %s\n"
    (String.concat " " (List.map (Printf.sprintf "%.4f") p.setup_s));
  let failed, correct = report_failures p.measured extra_wrong in
  result_line ~correct ~attempted:n ~failed
    [
      ("setup_s", "s", median p.setup_s);
      ("cpu_p50_ms", "ms", cpu_p50);
      ("cpu_tail_ms", "ms", cpu_tail);
      ("cpu_ms_per_req", "ms", p.cpu_ms /. float_of_int (max 1 successes));
      ("peak_rss_mb", "MB", float_of_int p.hwm_kb /. 1024.);
    ]

(* ------------------------------------------------------------------ *)

let () =
  (* a daemon that dies mid-run surfaces as EPIPE, not a silent kill *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  (* exit through at_exit, which stops a daemon still running *)
  List.iter
    (fun sg -> Sys.set_signal sg (Sys.Signal_handle (fun _ -> exit 1)))
    [ Sys.sigterm; Sys.sigint ];
  let workload = ref "" and seed = ref 0 and seconds = ref 10 and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "W cold_search | cached_reads | bulk_update");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_int seconds, "S length of the measured phase");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end metrics, or per-layer metrics");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload W --seed N --seconds S --trace 0|1";
  let w =
    match List.assoc_opt !workload Inputs.workloads with
    | Some w -> w
    | None ->
      prerr_endline ("unknown workload " ^ !workload);
      exit 2
  in
  let t = Inputs.make w !seed in
  write_files t;
  describe t;
  if !trace = 0 then untraced t ~seconds:!seconds
  else begin
    let p, extra_wrong, metrics = Layers.traced t in
    let failed, correct = report_failures p.measured extra_wrong in
    result_line ~correct ~attempted:(List.length p.measured) ~failed metrics
  end

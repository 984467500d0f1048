(* A forked `ric serve` with every flag the benchmark relies on pinned,
   one Unix-socket connection to it, and its resource counters read
   from /proc.  A fresh daemon per run, so no run inherits another's
   high-water mark. *)

open Ric_service

let ric_exe = "_build/default/bin/ric.exe"
let state_dir = ".ricbench"
let socket = state_dir ^ "/ricd.sock"

let flags =
  [
    "--domains"; "2";
    "--queue"; "64";
    "--max-connections"; "16";
    "--read-deadline"; "30";
    "--write-deadline"; "30";
    "--search"; "seq";
    "--root"; ".";
    "--flight"; state_dir ^ "/ricd.flight.jsonl";
  ]

type t = { pid : int; fd : Unix.file_descr }

let now_ns () = Int64.to_int (Monotonic_clock.now ())

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let exited pid =
  match Unix.waitpid [ Unix.WNOHANG ] pid with
  | 0, _ -> false
  | _ -> true
  | exception Unix.Unix_error (Unix.ECHILD, _, _) -> true

(* Daemons not yet stopped: killed and reaped at exit, so a run that
   fails part-way leaves no process behind. *)
let live = ref []

let () =
  at_exit (fun () ->
      List.iter
        (fun pid ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
        !live)

external affinity : unit -> int = "ricbench_affinity"
external set_affinity : int -> unit = "ricbench_set_affinity"

(* The daemon runs on one CPU, the highest-numbered this process may
   use.  On a shared virtual host the hypervisor pauses each virtual CPU
   on its own; a daemon spread over two of them burns CPU time in its
   runtime's stop-the-world barriers, waiting for a domain whose CPU is
   paused, so its CPU times rose with the host's load.  On one CPU a
   pause stops all its domains at once. *)
let cpu =
  let mask = affinity () in
  let rec highest c = if c = 0 || mask land (1 lsl c) <> 0 then c else highest (c - 1) in
  highest 61

let spawn () =
  mkdir_p state_dir;
  (try Unix.unlink socket with Unix.Unix_error _ -> ());
  let log =
    Unix.openfile (state_dir ^ "/ricd.log") [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644
  in
  let argv = Array.of_list (ric_exe :: "serve" :: "--socket" :: socket :: flags) in
  let mask = affinity () in
  set_affinity (1 lsl cpu);
  let pid =
    Fun.protect ~finally:(fun () -> set_affinity mask) (fun () ->
        Unix.create_process ric_exe argv Unix.stdin log log)
  in
  live := pid :: !live;
  Unix.close log;
  let deadline = now_ns () + 30_000_000_000 in
  let rec connect () =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX socket) with
    | () -> fd
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _) ->
      Unix.close fd;
      if exited pid then failwith "ric serve exited during start-up (see .ricbench/ricd.log)";
      if now_ns () > deadline then failwith "ric serve did not open its socket within 30 s";
      Unix.sleepf 0.001;
      connect ()
  in
  { pid; fd = connect () }

let rpc t bytes =
  Protocol.write_frame t.fd bytes;
  match Protocol.read_frame t.fd with
  | Some reply -> reply
  | None -> failwith "ric serve closed the connection"

let stop t =
  live := List.filter (( <> ) t.pid) !live;
  (try ignore (rpc t (Ric_text.Json.to_string (Protocol.to_json Protocol.Shutdown)))
   with _ -> ());
  (try Unix.close t.fd with Unix.Unix_error _ -> ());
  let deadline = now_ns () + 20_000_000_000 in
  let rec wait () =
    if not (exited t.pid) then
      if now_ns () > deadline then begin
        (try Unix.kill t.pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (Unix.waitpid [] t.pid)
      end
      else begin
        Unix.sleepf 0.005;
        wait ()
      end
  in
  wait ()

let read_file path =
  let ic = open_in path in
  Fun.protect ~finally:(fun () -> close_in_noerr ic) (fun () -> In_channel.input_all ic)

(* CPU time of a process in ns (0: this process), steal excluded; see
   cpuclock.c *)
external process_cpu_ns : int -> int = "ricbench_process_cpu_ns"

let cpu_ns t = process_cpu_ns t.pid
let self_cpu_ns () = process_cpu_ns 0

let ms_per_tick = 10.

(* steal time of the whole host, all CPUs, in clock ticks *)
let steal_ticks () =
  match String.split_on_char ' ' (List.hd (String.split_on_char '\n' (read_file "/proc/stat"))) with
  | "cpu" :: "" :: fields -> int_of_string (List.nth fields 7)
  | _ -> 0

let vmhwm_kb t =
  read_file (Printf.sprintf "/proc/%d/status" t.pid)
  |> String.split_on_char '\n'
  |> List.find_map (fun line ->
         match String.split_on_char ':' line with
         | [ "VmHWM"; v ] -> Scanf.sscanf (String.trim v) "%d kB" Option.some
         | _ -> None)
  |> Option.value ~default:0

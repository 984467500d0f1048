(* Global registry.  Registration takes a mutex; updates are lock-free
   atomic adds on the metric's own state.  Snapshotting reads the
   atomics without stopping writers: each individual value is coherent,
   the set as a whole is a best-effort point-in-time view, which is all
   a scrape needs. *)

type counter = int Atomic.t

(* Durations are accumulated in nanoseconds as ints: atomic float adds
   don't exist, and 2^62 ns is ~146 years of accumulated latency. *)
type histogram = {
  h_counts : int Atomic.t array;  (* one per finite bound *)
  h_inf : int Atomic.t;
  h_sum_ns : int Atomic.t;
}

let bucket_bounds = Array.init 13 (fun i -> 1e-6 *. (4. ** float_of_int i))

type kind =
  | K_counter of counter
  | K_gauge_fn of (unit -> int) ref
  | K_histogram of histogram

type metric = {
  m_name : string;
  m_labels : (string * string) list;
  m_help : string;
  m_kind : kind;
}

let kind_name = function
  | K_counter _ -> "counter"
  | K_gauge_fn _ -> "gauge"
  | K_histogram _ -> "histogram"

let registry : (string * (string * string) list, metric) Hashtbl.t =
  Hashtbl.create 64

let registry_mutex = Mutex.create ()

let valid_name s =
  s <> ""
  && (match s.[0] with 'a' .. 'z' | 'A' .. 'Z' | '_' -> true | _ -> false)
  && String.for_all
       (function 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> true | _ -> false)
       s

let check_name what s =
  if not (valid_name s) then
    invalid_arg (Printf.sprintf "Metrics: invalid %s %S" what s)

let normalize_labels labels =
  List.iter (fun (k, _) -> check_name "label name" k) labels;
  List.sort (fun (a, _) (b, _) -> String.compare a b) labels

(* [register] returns the existing metric for (name, labels) when the
   kinds agree, otherwise creates one.  A same-named family with a
   different kind is a registration bug, caught loudly. *)
let register ~help ~labels name fresh =
  check_name "metric name" name;
  let labels = normalize_labels labels in
  Mutex.lock registry_mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock registry_mutex) @@ fun () ->
  match Hashtbl.find_opt registry (name, labels) with
  | Some m -> m
  | None ->
    let kind = fresh () in
    Hashtbl.iter
      (fun (n, _) m ->
        if n = name && kind_name m.m_kind <> kind_name kind then
          invalid_arg
            (Printf.sprintf "Metrics: %s already registered as a %s" name
               (kind_name m.m_kind)))
      registry;
    let m = { m_name = name; m_labels = labels; m_help = help; m_kind = kind } in
    Hashtbl.add registry (name, labels) m;
    m

let counter ?(help = "") ?(labels = []) name =
  match
    (register ~help ~labels name (fun () -> K_counter (Atomic.make 0))).m_kind
  with
  | K_counter c -> c
  | k ->
    invalid_arg
      (Printf.sprintf "Metrics: %s is a %s, not a counter" name (kind_name k))

let incr c = Atomic.incr c
let add c n = ignore (Atomic.fetch_and_add c n)
let counter_value c = Atomic.get c

let gauge_fn ?(help = "") ?(labels = []) name f =
  match
    (register ~help ~labels name (fun () -> K_gauge_fn (ref f))).m_kind
  with
  | K_gauge_fn r -> r := f
  | k ->
    invalid_arg
      (Printf.sprintf "Metrics: %s is a %s, not a pull gauge" name (kind_name k))

let histogram ?(help = "") ?(labels = []) name =
  let fresh () =
    K_histogram
      {
        h_counts = Array.init (Array.length bucket_bounds) (fun _ -> Atomic.make 0);
        h_inf = Atomic.make 0;
        h_sum_ns = Atomic.make 0;
      }
  in
  match (register ~help ~labels name fresh).m_kind with
  | K_histogram h -> h
  | k ->
    invalid_arg
      (Printf.sprintf "Metrics: %s is a %s, not a histogram" name (kind_name k))

let observe h seconds =
  let seconds = if Float.is_nan seconds || seconds < 0. then 0. else seconds in
  let n = Array.length bucket_bounds in
  let rec slot i =
    if i >= n then None
    else if seconds <= Array.unsafe_get bucket_bounds i then Some i
    else slot (i + 1)
  in
  (match slot 0 with
   | Some i -> Atomic.incr h.h_counts.(i)
   | None -> Atomic.incr h.h_inf);
  ignore (Atomic.fetch_and_add h.h_sum_ns (int_of_float (seconds *. 1e9)))

let now_s () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let time h f =
  let t0 = now_s () in
  Fun.protect ~finally:(fun () -> observe h (now_s () -. t0)) f

type histogram_snapshot = {
  buckets : (float * int) array;
  inf_count : int;
  count : int;
  sum : float;
}

type value =
  | Counter of int
  | Gauge of int
  | Histogram of histogram_snapshot

type sample = {
  name : string;
  labels : (string * string) list;
  help : string;
  value : value;
}

let snapshot_histogram h =
  let running = ref 0 in
  let buckets =
    Array.mapi
      (fun i bound ->
        running := !running + Atomic.get h.h_counts.(i);
        (bound, !running))
      bucket_bounds
  in
  let inf_count = !running + Atomic.get h.h_inf in
  {
    buckets;
    inf_count;
    count = inf_count;
    sum = float_of_int (Atomic.get h.h_sum_ns) *. 1e-9;
  }

let sample_of_metric m =
  let value =
    match m.m_kind with
    | K_counter c -> Counter (Atomic.get c)
    | K_gauge_fn f -> Gauge (try !f () with _ -> 0)
    | K_histogram h -> Histogram (snapshot_histogram h)
  in
  { name = m.m_name; labels = m.m_labels; help = m.m_help; value }

let snapshot () =
  let metrics =
    Mutex.lock registry_mutex;
    Fun.protect ~finally:(fun () -> Mutex.unlock registry_mutex) @@ fun () ->
    Hashtbl.fold (fun _ m acc -> m :: acc) registry []
  in
  let metrics =
    List.sort
      (fun a b ->
        match String.compare a.m_name b.m_name with
        | 0 -> compare a.m_labels b.m_labels
        | c -> c)
      metrics
  in
  (* Pull gauges are evaluated outside the registry mutex so a pull
     function taking its own lock cannot deadlock against a concurrent
     registration from the thread holding that lock. *)
  List.map sample_of_metric metrics

let registered () =
  Mutex.lock registry_mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock registry_mutex) @@ fun () ->
  Hashtbl.length registry

(* -- Prometheus text format ------------------------------------------- *)

(* HELP text escapes only backslash and line feed (quotes stay raw) *)
let escape_help buf s =
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string buf {|\\|}
      | '\n' -> Buffer.add_string buf {|\n|}
      | c -> Buffer.add_char buf c)
    s

let escape_label_value buf s =
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string buf {|\\|}
      | '"' -> Buffer.add_string buf {|\"|}
      | '\n' -> Buffer.add_string buf {|\n|}
      | c -> Buffer.add_char buf c)
    s

let add_labels buf labels =
  match labels with
  | [] -> ()
  | _ ->
    Buffer.add_char buf '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char buf ',';
        Buffer.add_string buf k;
        Buffer.add_string buf "=\"";
        escape_label_value buf v;
        Buffer.add_char buf '"')
      labels;
    Buffer.add_char buf '}'

let float_repr f =
  if Float.is_integer f && Float.abs f < 1e15 then
    Printf.sprintf "%.0f" f
  else Printf.sprintf "%.9g" f

let add_bucket_line buf name labels ~le count =
  Buffer.add_string buf name;
  Buffer.add_string buf "_bucket";
  add_labels buf (labels @ [ ("le", le) ]);
  Buffer.add_char buf ' ';
  Buffer.add_string buf (string_of_int count);
  Buffer.add_char buf '\n'

let to_prometheus () =
  let samples = snapshot () in
  let buf = Buffer.create 4096 in
  let last_family = ref "" in
  List.iter
    (fun s ->
      let kind =
        match s.value with
        | Counter _ -> "counter"
        | Gauge _ -> "gauge"
        | Histogram _ -> "histogram"
      in
      if s.name <> !last_family then begin
        last_family := s.name;
        if s.help <> "" then begin
          Buffer.add_string buf "# HELP ";
          Buffer.add_string buf s.name;
          Buffer.add_char buf ' ';
          escape_help buf s.help;
          Buffer.add_char buf '\n'
        end;
        Buffer.add_string buf "# TYPE ";
        Buffer.add_string buf s.name;
        Buffer.add_char buf ' ';
        Buffer.add_string buf kind;
        Buffer.add_char buf '\n'
      end;
      match s.value with
      | Counter v | Gauge v ->
        Buffer.add_string buf s.name;
        add_labels buf s.labels;
        Buffer.add_char buf ' ';
        Buffer.add_string buf (string_of_int v);
        Buffer.add_char buf '\n'
      | Histogram h ->
        Array.iter
          (fun (bound, count) ->
            add_bucket_line buf s.name s.labels ~le:(float_repr bound) count)
          h.buckets;
        add_bucket_line buf s.name s.labels ~le:"+Inf" h.inf_count;
        Buffer.add_string buf s.name;
        Buffer.add_string buf "_sum";
        add_labels buf s.labels;
        Buffer.add_char buf ' ';
        Buffer.add_string buf (Printf.sprintf "%.9g" h.sum);
        Buffer.add_char buf '\n';
        Buffer.add_string buf s.name;
        Buffer.add_string buf "_count";
        add_labels buf s.labels;
        Buffer.add_char buf ' ';
        Buffer.add_string buf (string_of_int h.count);
        Buffer.add_char buf '\n')
    samples;
  Buffer.contents buf

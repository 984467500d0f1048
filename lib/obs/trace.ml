type attr = A_int of int | A_str of string | A_bool of bool

type span = {
  id : int;
  parent : int;
  span_name : string;
  start_ns : int64;
  mutable attrs : (string * attr) list;  (* reversed; single-owner *)
}

type sink = { oc : out_channel; sink_mutex : Mutex.t; written : int Atomic.t }

let sink : sink option Atomic.t = Atomic.make None
let enabled () = Atomic.get sink <> None
let null = { id = 0; parent = 0; span_name = ""; start_ns = 0L; attrs = [] }
let next_id = Atomic.make 1

(* Innermost live span id, per domain: requests decided on different
   domains get their own stacks, so they do not adopt each other's
   spans. *)
let current : int ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref 0)

let close () =
  match Atomic.exchange sink None with
  | None -> ()
  | Some s ->
    Mutex.lock s.sink_mutex;
    Fun.protect ~finally:(fun () -> Mutex.unlock s.sink_mutex) @@ fun () ->
    close_out_noerr s.oc

let open_file path =
  let oc = open_out_gen [ Open_wronly; Open_creat; Open_trunc ] 0o644 path in
  close ();
  Atomic.set sink
    (Some { oc; sink_mutex = Mutex.create (); written = Atomic.make 0 })

let start ?parent name =
  match Atomic.get sink with
  | None -> null
  | Some _ ->
    let cur = Domain.DLS.get current in
    let parent = match parent with Some p -> p.id | None -> !cur in
    let id = Atomic.fetch_and_add next_id 1 in
    cur := id;
    { id; parent; span_name = name; start_ns = Monotonic_clock.now (); attrs = [] }

let set_int sp k v = if sp.id <> 0 then sp.attrs <- (k, A_int v) :: sp.attrs
let set_str sp k v = if sp.id <> 0 then sp.attrs <- (k, A_str v) :: sp.attrs
let set_bool sp k v = if sp.id <> 0 then sp.attrs <- (k, A_bool v) :: sp.attrs

(* Escaping kept compatible with [Ric_text.Json.of_string] so trace
   lines round-trip through the project's own parser. *)
let add_json_string buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf {|\"|}
      | '\\' -> Buffer.add_string buf {|\\|}
      | '\n' -> Buffer.add_string buf {|\n|}
      | '\r' -> Buffer.add_string buf {|\r|}
      | '\t' -> Buffer.add_string buf {|\t|}
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

let finish sp =
  if sp.id <> 0 then begin
    let end_ns = Monotonic_clock.now () in
    let cur = Domain.DLS.get current in
    if !cur = sp.id then cur := sp.parent;
    match Atomic.get sink with
    | None -> ()
    | Some s ->
      let buf = Buffer.create 160 in
      Buffer.add_string buf "{\"id\":";
      Buffer.add_string buf (string_of_int sp.id);
      Buffer.add_string buf ",\"parent\":";
      Buffer.add_string buf (string_of_int sp.parent);
      Buffer.add_string buf ",\"name\":";
      add_json_string buf sp.span_name;
      Buffer.add_string buf ",\"start_us\":";
      Buffer.add_string buf
        (Int64.to_string (Int64.div sp.start_ns 1000L));
      Buffer.add_string buf ",\"dur_us\":";
      Buffer.add_string buf
        (Int64.to_string (Int64.div (Int64.sub end_ns sp.start_ns) 1000L));
      Buffer.add_string buf ",\"attrs\":{";
      (* attrs are consed newest-first; emitting in that order and
         skipping keys already seen makes the last write win *)
      let seen = ref [] in
      let emitted = ref 0 in
      List.iter
        (fun (k, v) ->
          if not (List.mem k !seen) then begin
            seen := k :: !seen;
            if !emitted > 0 then Buffer.add_char buf ',';
            incr emitted;
            add_json_string buf k;
            Buffer.add_char buf ':';
            match v with
            | A_int n -> Buffer.add_string buf (string_of_int n)
            | A_bool b -> Buffer.add_string buf (string_of_bool b)
            | A_str str -> add_json_string buf str
          end)
        sp.attrs;
      Buffer.add_string buf "}}\n";
      Mutex.lock s.sink_mutex;
      Fun.protect ~finally:(fun () -> Mutex.unlock s.sink_mutex) @@ fun () ->
      Buffer.output_buffer s.oc buf;
      flush s.oc;
      Atomic.incr s.written
  end

let with_span name f =
  let sp = start name in
  match f sp with
  | v ->
    finish sp;
    v
  | exception e ->
    set_str sp "error" (Printexc.to_string e);
    finish sp;
    raise e

let spans_written () =
  match Atomic.get sink with None -> 0 | Some s -> Atomic.get s.written

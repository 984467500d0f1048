module Json = Ric_text.Json

type t = { fd : Unix.file_descr; receive_timeout : float option }

exception Timeout
exception Circuit_open

(* ------------------------------------------------------------------ *)
(* Circuit breaker: after [threshold] consecutive overloaded/timeout
   outcomes the circuit opens and every call fails fast with
   {!Circuit_open} — no connection, no queueing at a server already
   drowning.  Once [cooldown] seconds have passed the next caller is
   let through as a half-open probe; its success closes the circuit,
   its failure re-opens it for another full cooldown. *)

module Breaker = struct
  type state = Closed | Open | Half_open

  type nonrec t = {
    threshold : int;
    cooldown : float;
    mutex : Mutex.t;
    mutable consecutive : int;
    mutable opened_at : float option;  (* Some => open (or probing) *)
    mutable probing : bool;
  }

  let create ?(threshold = 5) ?(cooldown = 2.0) () =
    {
      threshold = max 1 threshold;
      cooldown = max 0. cooldown;
      mutex = Mutex.create ();
      consecutive = 0;
      opened_at = None;
      probing = false;
    }

  let with_lock b f =
    Mutex.lock b.mutex;
    let v = f () in
    Mutex.unlock b.mutex;
    v

  let state b =
    with_lock b (fun () ->
        match b.opened_at with
        | None -> Closed
        | Some t0 ->
          if b.probing || Ric_obs.Metrics.now_s () -. t0 >= b.cooldown then Half_open
          else Open)

  let allow b =
    with_lock b (fun () ->
        match b.opened_at with
        | None -> true
        | Some t0 ->
          if b.probing then false (* one probe in flight is enough *)
          else if Ric_obs.Metrics.now_s () -. t0 >= b.cooldown then begin
            b.probing <- true;
            true
          end
          else false)

  let note_success b =
    with_lock b (fun () ->
        b.consecutive <- 0;
        b.opened_at <- None;
        b.probing <- false)

  let note_failure b =
    with_lock b (fun () ->
        b.consecutive <- b.consecutive + 1;
        if b.probing || b.consecutive >= b.threshold then begin
          (* a failed half-open probe re-opens for a fresh cooldown *)
          b.opened_at <- Some (Ric_obs.Metrics.now_s ());
          b.probing <- false
        end)
end

(* Capped exponential backoff with full jitter: 10 ms, 20, 40, ...
   capped at 500 ms, each scaled by a uniform draw so a herd of
   clients retrying against a restarting daemon does not thump it in
   lockstep.  Seeded per client process; reconnect cadence is not
   something tests should be deterministic about. *)
let backoff_base_s = 0.01
let backoff_cap_s = 0.5

let backoff_sleep =
  let rng = lazy (Random.State.make_self_init ()) in
  fun attempt ->
    let ceiling =
      min backoff_cap_s (backoff_base_s *. (2. ** float_of_int attempt))
    in
    Unix.sleepf (ceiling *. (0.5 +. (0.5 *. Random.State.float (Lazy.force rng) 1.)))

let connect ?(retries = 0) ?receive_timeout path =
  let rec go attempt =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX path) with
    | () ->
      (match receive_timeout with
       | Some s when s > 0. -> (
         try Unix.setsockopt_float fd Unix.SO_RCVTIMEO s
         with Unix.Unix_error _ -> ())
       | _ -> ());
      { fd; receive_timeout }
    | exception Unix.Unix_error ((Unix.ECONNREFUSED | Unix.ENOENT), _, _)
      when attempt < retries ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      backoff_sleep attempt;
      go (attempt + 1)
    | exception e ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      raise e
  in
  go 0

let parse_reply payload =
  match Json.of_string payload with
  | v -> v
  | exception Json.Parse_error (msg, line, col) ->
    failwith (Printf.sprintf "malformed response from ricd (%d:%d: %s)" line col msg)

let read_reply t =
  let timeout_raises = t.receive_timeout <> None in
  match Protocol.read_frame ~timeout_raises t.fd with
  | None -> failwith "ricd closed the connection without answering"
  | Some payload -> parse_reply payload
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> raise Timeout
  | exception Protocol.Frame_error msg when timeout_raises ->
    failwith (Printf.sprintf "no usable reply from ricd: %s" msg)

let request t json =
  (* client-side fault hooks: a stalled or truncated *request* frame is
     how the robustness suite makes the server see a slow-loris peer *)
  match
    Protocol.write_frame
      ?tear:(Faults.torn_read ())
      ?stall:(Faults.slow_read ())
      t.fd (Json.to_string json)
  with
  | () -> read_reply t
  | exception (Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) as e) ->
    (* the server answers-then-closes when refusing a connection at its
       cap; our send can race that close, so salvage the reply it
       already wrote before reporting the broken pipe *)
    (match read_reply t with
     | reply -> reply
     | exception _ -> raise e)

(* client-side correlation: every rpc carries a req_id, minted here
   when the request did not bring its own, so daemon logs, spans and
   flight-recorder events can be grepped by one id end to end *)
let mint_counter = Atomic.make 0

let mint_req_id () =
  Printf.sprintf "ric-%d-%d-%d" (Unix.getpid ())
    (int_of_float (Unix.gettimeofday () *. 1e3) land 0xffffff)
    (Atomic.fetch_and_add mint_counter 1)

let rpc t req =
  let json = Protocol.to_json req in
  let json =
    match Protocol.req_id_of json with
    | Some _ -> json
    | None -> Protocol.with_req_id json (mint_req_id ())
  in
  request t json

let rpc_retrying ?breaker ?(max_retries = 3) t req =
  let check_allowed () =
    match breaker with
    | Some b when not (Breaker.allow b) -> raise Circuit_open
    | _ -> ()
  in
  let note f = match breaker with Some b -> f b | None -> () in
  let rng = lazy (Random.State.make_self_init ()) in
  let rec go attempt =
    check_allowed ();
    match rpc t req with
    | resp -> (
      match Protocol.retry_after_ms resp with
      | None ->
        note Breaker.note_success;
        resp
      | Some hint_ms ->
        note Breaker.note_failure;
        if attempt >= max_retries then resp (* hand the shed reply back *)
        else begin
          (* the server's hint is a floor; add jitter and our own
             backoff so a shed herd does not return in lockstep *)
          let floor_s = float_of_int hint_ms /. 1000. in
          let backoff = backoff_base_s *. (2. ** float_of_int attempt) in
          let jitter = Random.State.float (Lazy.force rng) backoff in
          Unix.sleepf (min backoff_cap_s (max floor_s backoff) +. jitter);
          go (attempt + 1)
        end)
    | exception Timeout ->
      (* the connection is unusable after a timeout — count it against
         the breaker and let the caller decide whether to reconnect *)
      note Breaker.note_failure;
      raise Timeout
  in
  go 0

let close t = try Unix.close t.fd with Unix.Unix_error _ -> ()

let with_connection ?retries ?receive_timeout path f =
  let t = connect ?retries ?receive_timeout path in
  match f t with
  | v ->
    close t;
    v
  | exception e ->
    close t;
    raise e

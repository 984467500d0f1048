open Ric_relational
module Json = Ric_text.Json

type request =
  | Ping
  | Open of { path : string option; source : string option; name : string option }
  | Rcdp of {
      session : string;
      query : string;
      nocache : bool;
      timeout_ms : int option;
      search : string option;
      req_id : string option;
      explain : bool;
    }
  | Rcqp of {
      session : string;
      query : string;
      nocache : bool;
      timeout_ms : int option;
      search : string option;
      req_id : string option;
      explain : bool;
    }
  | Audit of {
      session : string;
      query : string;
      nocache : bool;
      timeout_ms : int option;
      search : string option;
      req_id : string option;
      explain : bool;
    }
  | Mine of {
      session : string;
      nocache : bool;
      timeout_ms : int option;
      min_support : int option;
      workers : int option;
    }
  | Insert of { session : string; rel : string; rows : Value.t list list }
  | Insert_bulk of {
      session : string;
      batches : (string * Value.t list list) list;
    }
  | Close of { session : string }
  | Stats
  | Dump
  | Shutdown

let op_name = function
  | Ping -> "ping"
  | Open _ -> "open"
  | Rcdp _ -> "rcdp"
  | Rcqp _ -> "rcqp"
  | Audit _ -> "audit"
  | Mine _ -> "mine"
  | Insert _ -> "insert"
  | Insert_bulk _ -> "insert_bulk"
  | Close _ -> "close"
  | Stats -> "stats"
  | Dump -> "dump"
  | Shutdown -> "shutdown"

let error ?(kind = "error") msg =
  Json.Obj [ ("ok", Json.Bool false); ("kind", Json.Str kind); ("error", Json.Str msg) ]

(* The load-shedding reply: admission control answers this instead of
   queueing past capacity, and [retry_after_ms] tells a well-behaved
   client how long to back off before retrying. *)
let overloaded ~retry_after_ms =
  Json.Obj
    [
      ("ok", Json.Bool false);
      ("kind", Json.Str "overloaded");
      ( "error",
        Json.Str
          (Printf.sprintf "server at capacity; retry after %d ms" retry_after_ms) );
      ("retry_after_ms", Json.Int retry_after_ms);
    ]

let retry_after_ms = function
  | Json.Obj fields
    when List.assoc_opt "kind" fields = Some (Json.Str "overloaded") -> (
    match List.assoc_opt "retry_after_ms" fields with
    | Some (Json.Int n) when n >= 0 -> Some n
    | _ -> Some 0)
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Decoding. *)

let field fields k = List.assoc_opt k fields

let str_field fields k =
  match field fields k with
  | Some (Json.Str s) -> Ok s
  | Some _ -> Error (Printf.sprintf "field %S must be a string" k)
  | None -> Error (Printf.sprintf "missing field %S" k)

let opt_str_field fields k =
  match field fields k with
  | Some (Json.Str s) -> Ok (Some s)
  | Some Json.Null | None -> Ok None
  | Some _ -> Error (Printf.sprintf "field %S must be a string" k)

let bool_field_default fields k default =
  match field fields k with
  | Some (Json.Bool b) -> Ok b
  | None -> Ok default
  | Some _ -> Error (Printf.sprintf "field %S must be a boolean" k)

let check_search s =
  let par_count n = match int_of_string_opt n with Some n -> n >= 1 | None -> false in
  match String.split_on_char ':' s with
  | [ ("seq" | "inc" | "par") ] -> Ok s
  | [ "par"; n ] when par_count n -> Ok s
  | _ -> Error (Printf.sprintf "unknown search mode %S (expected seq, par or par:N)" s)

let opt_search_field fields k =
  match field fields k with
  | Some (Json.Str s) ->
    (match check_search s with
     | Ok s -> Ok (Some s)
     | Error e -> Error (Printf.sprintf "field %S: %s" k e))
  | Some Json.Null | None -> Ok None
  | Some _ -> Error (Printf.sprintf "field %S must be a string" k)

let opt_int_field fields k =
  match field fields k with
  | Some (Json.Int n) when n > 0 -> Ok (Some n)
  | Some (Json.Int _) -> Error (Printf.sprintf "field %S must be a positive integer" k)
  | Some Json.Null | None -> Ok None
  | Some _ -> Error (Printf.sprintf "field %S must be a positive integer" k)

let value_of_json = function
  | Json.Int n -> Ok (Value.Int n)
  | Json.Str s -> Ok (Value.Str s)
  | _ -> Error "row cells must be strings or integers"

let rows_field fields =
  match field fields "rows" with
  | Some (Json.List rows) ->
    let rec go acc = function
      | [] -> Ok (List.rev acc)
      | Json.List cells :: rest ->
        let rec cells_go cacc = function
          | [] -> Ok (List.rev cacc)
          | c :: cs ->
            (match value_of_json c with
             | Ok v -> cells_go (v :: cacc) cs
             | Error _ as e -> e)
        in
        (match cells_go [] cells with
         | Ok row -> go (row :: acc) rest
         | Error _ as e -> e)
      | _ :: _ -> Error "each row must be a list of cells"
    in
    go [] rows
  | Some _ -> Error "field \"rows\" must be a list of rows"
  | None -> Error "missing field \"rows\""

let ( let* ) = Result.bind

let batches_field fields =
  match field fields "batches" with
  | Some (Json.List bs) ->
    let rec go acc = function
      | [] -> Ok (List.rev acc)
      | Json.Obj bf :: rest ->
        let* rel = str_field bf "rel" in
        let* rows = rows_field bf in
        go ((rel, rows) :: acc) rest
      | _ :: _ -> Error "each batch must be an object with \"rel\" and \"rows\""
    in
    go [] bs
  | Some _ -> Error "field \"batches\" must be a list of batches"
  | None -> Error "missing field \"batches\""

let of_json = function
  | Json.Obj fields ->
    let* op = str_field fields "op" in
    (match op with
     | "ping" -> Ok Ping
     | "stats" -> Ok Stats
     | "dump" -> Ok Dump
     | "shutdown" -> Ok Shutdown
     | "open" ->
       let* path = opt_str_field fields "path" in
       let* source = opt_str_field fields "source" in
       let* name = opt_str_field fields "name" in
       if path = None && source = None then
         Error "open needs a \"path\" or a \"source\" field"
       else Ok (Open { path; source; name })
     | "rcdp" | "rcqp" | "audit" ->
       let* session = str_field fields "session" in
       let* query = str_field fields "query" in
       let* nocache = bool_field_default fields "nocache" false in
       let* timeout_ms = opt_int_field fields "timeout_ms" in
       let* search = opt_search_field fields "search" in
       let* req_id = opt_str_field fields "req_id" in
       let* explain = bool_field_default fields "explain" false in
       Ok
         (match op with
          | "rcdp" ->
            Rcdp { session; query; nocache; timeout_ms; search; req_id; explain }
          | "rcqp" ->
            Rcqp { session; query; nocache; timeout_ms; search; req_id; explain }
          | _ ->
            Audit { session; query; nocache; timeout_ms; search; req_id; explain })
     | "mine" ->
       let* session = str_field fields "session" in
       let* nocache = bool_field_default fields "nocache" false in
       let* timeout_ms = opt_int_field fields "timeout_ms" in
       let* min_support = opt_int_field fields "min_support" in
       let* workers = opt_int_field fields "workers" in
       Ok (Mine { session; nocache; timeout_ms; min_support; workers })
     | "insert" ->
       let* session = str_field fields "session" in
       let* rel = str_field fields "rel" in
       let* rows = rows_field fields in
       Ok (Insert { session; rel; rows })
     | "insert_bulk" ->
       let* session = str_field fields "session" in
       let* batches = batches_field fields in
       Ok (Insert_bulk { session; batches })
     | "close" ->
       let* session = str_field fields "session" in
       Ok (Close { session })
     | other -> Error (Printf.sprintf "unknown op %S" other))
  | _ -> Error "a request must be a JSON object"

(* ------------------------------------------------------------------ *)
(* Encoding (client side). *)

let json_of_value = function
  | Value.Int n -> Json.Int n
  | Value.Str s -> Json.Str s

let opt k = function Some s -> [ (k, Json.Str s) ] | None -> []

let to_json req =
  let op = ("op", Json.Str (op_name req)) in
  match req with
  | Ping | Stats | Dump | Shutdown -> Json.Obj [ op ]
  | Open { path; source; name } ->
    Json.Obj ((op :: opt "path" path) @ opt "source" source @ opt "name" name)
  | Rcdp { session; query; nocache; timeout_ms; search; req_id; explain }
  | Rcqp { session; query; nocache; timeout_ms; search; req_id; explain }
  | Audit { session; query; nocache; timeout_ms; search; req_id; explain } ->
    Json.Obj
      ([ op; ("session", Json.Str session); ("query", Json.Str query) ]
      @ (if nocache then [ ("nocache", Json.Bool true) ] else [])
      @ (match timeout_ms with Some ms -> [ ("timeout_ms", Json.Int ms) ] | None -> [])
      @ opt "req_id" req_id
      @ (if explain then [ ("explain", Json.Bool true) ] else [])
      @ opt "search" search)
  | Mine { session; nocache; timeout_ms; min_support; workers } ->
    let opt_int k = function Some n -> [ (k, Json.Int n) ] | None -> [] in
    Json.Obj
      ([ op; ("session", Json.Str session) ]
      @ (if nocache then [ ("nocache", Json.Bool true) ] else [])
      @ opt_int "timeout_ms" timeout_ms
      @ opt_int "min_support" min_support
      @ opt_int "workers" workers)
  | Insert { session; rel; rows } ->
    Json.Obj
      [
        op;
        ("session", Json.Str session);
        ("rel", Json.Str rel);
        ("rows", Json.List (List.map (fun row -> Json.List (List.map json_of_value row)) rows));
      ]
  | Insert_bulk { session; batches } ->
    Json.Obj
      [
        op;
        ("session", Json.Str session);
        ( "batches",
          Json.List
            (List.map
               (fun (rel, rows) ->
                 Json.Obj
                   [
                     ("rel", Json.Str rel);
                     ( "rows",
                       Json.List
                         (List.map
                            (fun row -> Json.List (List.map json_of_value row))
                            rows) );
                   ])
               batches) );
      ]
  | Close { session } -> Json.Obj [ op; ("session", Json.Str session) ]

(* ------------------------------------------------------------------ *)
(* Correlation ids.  [req_id] lives at the JSON level so every op —
   not just the decide records above — can carry one: decode ignores
   unknown fields, and the server reads the raw object before
   dispatch. *)

let req_id_of = function
  | Json.Obj fields -> (
    match List.assoc_opt "req_id" fields with
    | Some (Json.Str s) when s <> "" -> Some s
    | _ -> None)
  | _ -> None

let with_req_id json rid =
  match json with
  | Json.Obj fields when not (List.mem_assoc "req_id" fields) ->
    Json.Obj (fields @ [ ("req_id", Json.Str rid) ])
  | other -> other

(* ------------------------------------------------------------------ *)
(* Framing. *)

exception Frame_error of string

let max_frame = 16 * 1024 * 1024

(* Once the first header byte has arrived we are mid-frame: by default,
   retry on receive timeouts rather than letting them desynchronise the
   stream.  Only the very first read of a frame (in {!read_frame}) lets
   EAGAIN through, as the server's idle-poll point — unless the caller
   asked for [timeout_raises] (the client's receive-timeout mode), in
   which case a mid-frame timeout raises too. *)
let rec read_retry ~timeout_raises fd buf ofs len =
  try Unix.read fd buf ofs len
  with
  | Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) when timeout_raises ->
    raise (Frame_error "timed out mid-frame")
  | Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
    read_retry ~timeout_raises fd buf ofs len

let really_read ~timeout_raises fd buf ofs len =
  let rec go ofs remaining =
    if remaining > 0 then begin
      let n = read_retry ~timeout_raises fd buf ofs remaining in
      if n = 0 then raise (Frame_error "connection closed mid-frame");
      go (ofs + n) (remaining - n)
    end
  in
  go ofs len

let read_frame ?(timeout_raises = false) fd =
  let header = Bytes.create 4 in
  let n = Unix.read fd header 0 4 in
  if n = 0 then None
  else begin
    if n < 4 then really_read ~timeout_raises fd header n (4 - n);
    let len = Int32.to_int (Bytes.get_int32_be header 0) in
    if len <= 0 || len > max_frame then
      raise (Frame_error (Printf.sprintf "invalid frame length %d" len));
    let payload = Bytes.create len in
    really_read ~timeout_raises fd payload 0 len;
    Some (Bytes.unsafe_to_string payload)
  end

let frame_bytes payload =
  let len = String.length payload in
  if len > max_frame then
    raise (Frame_error (Printf.sprintf "frame of %d bytes exceeds the %d limit" len max_frame));
  let buf = Bytes.create (4 + len) in
  Bytes.set_int32_be buf 0 (Int32.of_int len);
  Bytes.blit_string payload 0 buf 4 len;
  buf

let write_frame ?tear ?stall fd payload =
  let buf = frame_bytes payload in
  let full = Bytes.length buf in
  let total = match tear with Some n -> min n full | None -> full in
  let rec go ofs remaining =
    if remaining > 0 then begin
      let n = Unix.write fd buf ofs remaining in
      go (ofs + n) (remaining - n)
    end
  in
  (* [stall]: send a couple of header bytes, then freeze mid-frame for
     that long — the slow-loris shape the server's read deadline must
     defend against. *)
  (match stall with
   | Some seconds when total > 2 ->
     go 0 2;
     Unix.sleepf seconds;
     go 2 (total - 2)
   | _ -> go 0 total);
  if total < full then
    raise (Frame_error (Printf.sprintf "frame torn after %d bytes (fault injection)" total))

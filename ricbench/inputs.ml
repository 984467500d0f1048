(* Seeded inputs of the ricd benchmark.

   For each workload this module builds, from the seed alone: the
   scenario files to generate, the scenarios the sessions open (session
   s1 opens the first path, s2 the second, ...), the setup requests that
   warm the daemon, and the measured request sequence.  Nothing here
   reads the clock, the environment or the file system, so one
   (workload, seed) pair always gives byte-identical files and request
   bytes; the tests in test_inputs.ml check that. *)

open Ric_relational
open Ric_service
module Json = Ric_text.Json
module Gen = Ric_workloads.Gen

type workload = Cold_search | Cached_reads | Bulk_update

let workloads =
  [ ("cold_search", Cold_search); ("cached_reads", Cached_reads); ("bulk_update", Bulk_update) ]

let workload_name w = fst (List.find (fun (_, w') -> w' = w) workloads)

(* Generated scenarios live here, relative to the checkout root the
   daemon runs in. *)
let work_dir = ".ricbench/work"

(* Generous: a decide that hits it is a counted failure, not a hang. *)
let decide_timeout_ms = 60_000

type t = {
  workload : workload;
  seed : int;
  files : (string * string) list;  (** generated scenario: path, text *)
  opens : string list;  (** scenario path of session s1, s2, ... *)
  warm : Protocol.request list;  (** setup requests after the opens *)
  period : int;  (** the measured sequence repeats (or rounds) with this length *)
  measured : int -> Protocol.request;  (** the i-th measured request *)
}

let rng seed tag = Random.State.make [| seed; tag |]
let session i = Printf.sprintf "s%d" (i + 1)

let decide ~op ?(nocache = false) s query =
  let timeout_ms = Some decide_timeout_ms in
  match op with
  | `Rcdp ->
    Protocol.Rcdp
      { session = s; query; nocache; timeout_ms; search = None; req_id = None; explain = false }
  | `Rcqp ->
    Protocol.Rcqp
      { session = s; query; nocache; timeout_ms; search = None; req_id = None; explain = false }

let mine ?(nocache = false) s =
  Protocol.Mine
    { session = s; nocache; timeout_ms = Some decide_timeout_ms; min_support = None; workers = None }

(* The repository's hand-written scenarios and their queries.  hard.ric
   is left out: it only ever hits its deadline, so it measures the
   clock. *)
let fixed =
  [
    ("scenarios/crm.ric", [ "Q0"; "Q2" ]);
    ("scenarios/supply_chain.ric", [ "ActiveSuppliers"; "PartsBySupplier"; "WhereIsO1" ]);
    ("scenarios/dirty_support.ric", [ "Q2" ]);
  ]

let ladder_file ~rung ~seed =
  ( Printf.sprintf "%s/ladder-r%d-%d.ric" work_dir rung seed,
    Gen.to_string Gen.Ladder ~tuples:1 ~seed ~rung )

(* [n] distinct ladder seeds per rung, drawn from the benchmark seed. *)
let ladder_files st ~rungs =
  List.concat_map
    (fun (rung, n) ->
      let seeds = Hashtbl.create n in
      let rec draw acc =
        if List.length acc = n then List.rev acc
        else
          let s = Random.State.int st 1_000_000 in
          if Hashtbl.mem seeds s then draw acc
          else (
            Hashtbl.add seeds s ();
            draw (ladder_file ~rung ~seed:s :: acc))
      in
      List.map (fun f -> (rung, f)) (draw []))
    rungs

(* Merge strata so that every stretch of the sequence holds each stratum
   in proportion: item j of a k-item stratum sits at (j + 1/2) / k.  A
   run that stops part-way through a cycle then still measures the
   intended mix. *)
let interleave strata =
  strata
  |> List.mapi (fun si items ->
         let k = float_of_int (List.length items) in
         List.mapi (fun j x -> ((float_of_int j +. 0.5) /. k, si, x)) items)
  |> List.concat
  |> List.stable_sort (fun (a, si, _) (b, sj, _) -> compare (a, si) (b, sj))
  |> List.map (fun (_, _, x) -> x)

let cycle ~workload ~seed ~files ~opens ~warm items =
  let items = Array.of_list items in
  {
    workload;
    seed;
    files;
    opens;
    warm;
    period = Array.length items;
    measured = (fun i -> items.(i mod Array.length items));
  }

(* cold_search: every request runs a decider or the miner.  Ladder
   rungs 3-5 from many seeds give a spread of costs, weighted so that
   each reported percentile falls inside one class of requests.  Per
   rung: how many instances get both an RCDP and an RCQP decide, and how
   many more get only the one named.  The median (the 50th of 99) sits
   among the twenty rung-3 RCQPs (about 0.2 s CPU), with about as many
   cheaper requests below them as costlier ones above.  Rung-4 RCQP
   costs fall in two modes (near 0.6 s and 0.9 s), about half the
   instances in each; the tail (the eleventh slowest request) is the
   eighth slowest of them behind the three rung-5 RCQPs, so with 24 of
   them it sits in the upper mode unless fewer than eight fall there.
   Rung 5, the costliest, is drawn least often, so a cycle stays under
   40 s of CPU. *)
let cold_rungs = [ (3, 20, (2, `Rcdp)); (4, 14, (10, `Rcqp)); (5, 3, (0, `Rcqp)) ]

let cold_search seed =
  let st = rng seed 1 in
  let ladders =
    ladder_files st ~rungs:(List.map (fun (r, both, (only, _)) -> (r, both + only)) cold_rungs)
  in
  let fixed_paths = List.map fst fixed in
  let opens = fixed_paths @ List.map (fun (_, (p, _)) -> p) ladders in
  let nfixed = List.length fixed in
  let fixed_reqs =
    List.concat
      (List.mapi
         (fun i (_, qs) ->
           List.concat_map
             (fun q -> [ decide ~op:`Rcdp ~nocache:true (session i) q;
                         decide ~op:`Rcqp ~nocache:true (session i) q ])
             qs)
         fixed)
  in
  (* the decides of instance [j] of its rung *)
  let ops rung j =
    let _, both, (_, only) = List.find (fun (r, _, _) -> r = rung) cold_rungs in
    if j < both then [ `Rcdp; `Rcqp ] else [ only ]
  in
  let indexed =
    List.mapi
      (fun i (r, _) ->
        let j = List.length (List.filter (fun (r', _) -> r' = r) (List.filteri (fun k _ -> k < i) ladders)) in
        (i, r, j))
      ladders
  in
  let ladder_stratum rung op =
    List.filter_map
      (fun (i, r, j) ->
        if r = rung && List.mem op (ops r j) then
          Some (decide ~op ~nocache:true (session (nfixed + i)) "QL")
        else None)
      indexed
  in
  let strata =
    fixed_reqs
    :: List.concat_map
         (fun (r, _, _) -> [ ladder_stratum r `Rcdp; ladder_stratum r `Rcqp ])
         cold_rungs
  in
  (* the miner first, so a short prefix of the cycle reaches it *)
  cycle ~workload:Cold_search ~seed ~files:(List.map snd ladders) ~opens ~warm:[]
    (mine ~nocache:true (session 0) :: interleave strata)

(* cached_reads: many sessions over the same scenarios, warmed with
   cheap decides; the measured phase only reads the warm entries back. *)
let cached_reads seed =
  let st = rng seed 2 in
  let copies = 8 in
  let ladders = ladder_files st ~rungs:[ (1, 4); (2, 4) ] in
  let fixed_paths = List.map fst fixed in
  let opens =
    List.concat (List.init copies (fun _ -> fixed_paths)) @ List.map (fun (_, (p, _)) -> p) ladders
  in
  (* the cheap decides of each hand-written scenario *)
  let cheap = function
    | "scenarios/crm.ric" -> [ (`Rcdp, "Q0"); (`Rcdp, "Q2") ]
    | "scenarios/supply_chain.ric" -> [ (`Rcdp, "PartsBySupplier"); (`Rcdp, "WhereIsO1") ]
    | _ -> [ (`Rcdp, "Q2"); (`Rcqp, "Q2") ]
  in
  let nfixed = copies * List.length fixed in
  let warm =
    List.concat
      (List.mapi
         (fun i path ->
           let s = session i in
           if i < nfixed then List.map (fun (op, q) -> decide ~op s q) (cheap path)
           else [ decide ~op:`Rcdp s "QL"; decide ~op:`Rcqp s "QL" ])
         opens)
    @ [ mine (session 0) ]
  in
  let reads = Array.of_list warm in
  for i = Array.length reads - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let x = reads.(i) in
    reads.(i) <- reads.(j);
    reads.(j) <- x
  done;
  cycle ~workload:Cached_reads ~seed ~files:(List.map snd ladders) ~opens ~warm
    (Array.to_list reads)

(* bulk_update: one session on a generated triple store.  The appended
   queries have constant subjects or objects, so each decide takes one
   or two search steps and its cost is query evaluation over the data;
   QB asks for a tuple the data already holds, so its Complete verdict
   is carried across inserts while the others are revalidated. *)
let bulk_tuples = 10_000
let bulk_entities = bulk_tuples / 10 (* as Gen.triple sizes its registry *)
let bulk_predicates = 16
let bulk_batch = 100
let bulk_queries = [ "QP"; "QO"; "QJ"; "QB" ]

(* per round: one write, three cached reads of every query, one nocache
   decide — reads are the majority so read and all-request medians sit
   among them, and the all-request tail among the writes *)
let read_repeats = 3
let round_length = 1 + (read_repeats * List.length bulk_queries) + 1

let bulk_scenario seed =
  let st = rng seed 3 in
  let gen_seed = Random.State.int st 1_000_000 in
  let text = Gen.to_string Gen.Triple ~tuples:bulk_tuples ~seed:gen_seed ~rung:1 in
  let sc = Ric_text.Scenario.parse text in
  let present = Relation.elements (Database.relation sc.Ric_text.Scenario.db "T") in
  let x = List.nth present (Random.State.int st (List.length present)) in
  let v i = Value.to_string (Tuple.get x i) in
  let e () = Printf.sprintf "e%d" (Random.State.int st bulk_entities) in
  let a = e () and b = e () and c = e () in
  let k = Printf.sprintf "k%d" (Random.State.int st bulk_predicates) in
  let queries =
    String.concat ""
      [
        Printf.sprintf "query QP(p) :- T(%S, p, %S).\n" a b;
        Printf.sprintf "query QO(o) :- T(%S, %S, o).\n" a k;
        Printf.sprintf "query QJ(p, q) :- T(%S, p, x), T(x, q, %S).\n" a c;
        Printf.sprintf "query QB() :- T(%S, %S, %S).\n" (v 0) (v 1) (v 2);
      ]
  in
  (Printf.sprintf "%s/triple-%d.ric" work_dir gen_seed, text ^ queries)

let random_row st =
  let e () = Value.Str (Printf.sprintf "e%d" (Random.State.int st bulk_entities)) in
  let s = e () in
  let p = Value.Str (Printf.sprintf "k%d" (Random.State.int st bulk_predicates)) in
  [ s; p; e () ]

let bulk_write seed round =
  let st = Random.State.make [| seed; 4; round |] in
  let s = session 0 in
  if round mod 4 = 3 then
    Protocol.Insert_bulk
      { session = s; batches = [ ("T", List.init bulk_batch (fun _ -> random_row st)) ] }
  else Protocol.Insert { session = s; rel = "T"; rows = [ random_row st ] }

let bulk_update seed =
  let path, text = bulk_scenario seed in
  let s = session 0 in
  let reads = List.map (fun q -> decide ~op:`Rcdp s q) bulk_queries in
  let measured i =
    let round = i / round_length and pos = i mod round_length in
    if pos = 0 then bulk_write seed round
    else if pos = round_length - 1 then
      decide ~op:`Rcdp ~nocache:true s (List.nth bulk_queries (round mod List.length bulk_queries))
    else List.nth reads ((pos - 1) mod List.length bulk_queries)
  in
  {
    workload = Bulk_update;
    seed;
    files = [ (path, text) ];
    opens = [ path ];
    warm = reads;
    period = round_length;
    measured;
  }

(* How many requests a run of [seconds] measures: whole periods, about
   that many seconds' worth on a quiet 2-core host, and never less than
   one period.  A fixed count, not the clock, ends every run, so a run
   measures the same requests however fast the program or busy the host:
   bulk_update's database grows with every write, and a run that stopped
   on the clock would end on a larger database, and pay more per write,
   the faster the program is.  cold_search's requests are few and long,
   so it always measures whole cycles, in which every ladder instance has
   the same weight. *)
let cold_search_rps = 2.9
let cached_reads_rps = 5000.
let bulk_rounds_per_s = 4.

let measured_count t ~seconds =
  let periods per_s = max 1 (int_of_float (Float.round (float_of_int seconds *. per_s))) in
  t.period
  * periods
      (match t.workload with
       | Cold_search -> cold_search_rps /. float_of_int t.period
       | Cached_reads -> cached_reads_rps /. float_of_int t.period
       | Bulk_update -> bulk_rounds_per_s)

let make workload seed =
  match workload with
  | Cold_search -> cold_search seed
  | Cached_reads -> cached_reads seed
  | Bulk_update -> bulk_update seed

(* Requests carry a deterministic correlation id, so the daemon never
   mints one and the bytes depend on the seed alone. *)
let encode ~tag i req =
  Json.to_string (Protocol.with_req_id (Protocol.to_json req) (Printf.sprintf "%s%d" tag i))

let open_request path = Protocol.Open { path = Some path; source = None; name = None }

let setup_bytes t =
  List.mapi (fun i p -> encode ~tag:"o" i (open_request p)) t.opens
  @ List.mapi (fun i r -> encode ~tag:"w" i r) t.warm

let measured_bytes t i = encode ~tag:"m" i (t.measured i)

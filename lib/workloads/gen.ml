(* Parameterised .ric scenario families for `ric gen`: bulk data for
   the ingest fast path and hardness rungs for the deciders.

   The bulk families (triple, telco) write their text straight through
   the sink, row by row — emitting a 10^6-tuple file never materialises
   the scenario (or any rows block) in memory, and the data is drawn
   from an LCG so one (family, tuples, seed) triple always produces
   byte-identical output.  Both are partially closed by construction:
   every foreign value is picked from the master registry the
   constraints bound it by, so the emitted instance is a valid RCDP
   input as-is.

   The ladder family wraps the Theorem 3.6 reduction: rung r is a
   ∀*∃*-3SAT instance whose RCDP encoding grows with r, printed
   through Scenario.pp so it round-trips the parser like any
   hand-written file. *)

open Ric_constraints

type family =
  | Triple
  | Telco
  | Ladder

let family_names = [ ("triple", Triple); ("telco", Telco); ("ladder", Ladder) ]

let family_of_string s =
  match List.assoc_opt s family_names with
  | Some f -> Ok f
  | None ->
    Error
      (Printf.sprintf "unknown family %S (valid: %s)" s
         (String.concat ", " (List.map fst family_names)))

let family_to_string f =
  fst (List.find (fun (_, f') -> f' = f) family_names)

(* Draw from the high bits: the low bits of a power-of-two-modulus LCG
   cycle with tiny period, which would fold a million-row emission
   onto a handful of distinct tuples. *)
let lcg seed =
  let state = ref (seed land 0x3FFFFFFF) in
  fun bound ->
    state := ((!state * 1103515245) + 12345) land 0x3FFFFFFF;
    (!state lsr 14) mod bound

let max_tuples = 1_000_000

let check_tuples tuples =
  if tuples < 1 || tuples > max_tuples then
    invalid_arg
      (Printf.sprintf "Gen: tuples must be in [1, %d] (got %d)" max_tuples tuples)

(* ------------------------------------------------------------------ *)
(* triple: an RDF-style triple store.  T(s, p, o) over a master entity
   registry MEnt(e); subjects and objects are bounded by the registry,
   predicates come from a small fixed pool. *)

let n_predicates = 16

let triple ~tuples ~seed sink =
  check_tuples tuples;
  let rand = lcg seed in
  let entities = max 2 (tuples / 10) in
  sink "# generated: ric gen triple\n";
  sink "schema T(s, p, o).\n";
  sink "master MEnt(e).\n";
  sink "rows MEnt {";
  for e = 0 to entities - 1 do
    sink (Printf.sprintf " (e%d)" e)
  done;
  sink " }.\n";
  sink "rows T {";
  for _ = 1 to tuples do
    sink
      (Printf.sprintf " (e%d, k%d, e%d)" (rand entities) (rand n_predicates)
         (rand entities))
  done;
  sink " }.\n";
  sink "constraint SubjBound(s) :- T(s, p, o) => MEnt[0].\n";
  sink "constraint ObjBound(o) :- T(s, p, o) => MEnt[0].\n";
  sink "query QT(s) :- T(s, \"k0\", o).\n"

(* ------------------------------------------------------------------ *)
(* telco: calls and bills over master customer and rate-plan
   registries, with an FD pinning each customer to one rate plan (the
   generator honours it by deriving the plan from the customer). *)

let telco ~tuples ~seed sink =
  check_tuples tuples;
  let rand = lcg seed in
  let customers = max 2 (tuples / 10) in
  let rates = 8 in
  let calls = tuples / 2 in
  let bills = tuples - calls in
  sink "# generated: ric gen telco\n";
  sink "schema Call(src, dst, dur).\n";
  sink "schema Bill(cust, rate, amt).\n";
  sink "master MCust(cust).\n";
  sink "master MRate(rate, price).\n";
  sink "rows MCust {";
  for c = 0 to customers - 1 do
    sink (Printf.sprintf " (c%d)" c)
  done;
  sink " }.\n";
  sink "rows MRate {";
  for r = 0 to rates - 1 do
    sink (Printf.sprintf " (r%d, %d)" r ((r + 1) * 10))
  done;
  sink " }.\n";
  sink "rows Call {";
  for _ = 1 to calls do
    sink
      (Printf.sprintf " (c%d, c%d, %d)" (rand customers) (rand customers)
         (1 + rand 3600))
  done;
  sink " }.\n";
  sink "rows Bill {";
  for _ = 1 to bills do
    let c = rand customers in
    (* rate is a function of the customer, so the FD below holds *)
    sink (Printf.sprintf " (c%d, r%d, %d)" c (c mod rates) (1 + rand 500))
  done;
  sink " }.\n";
  sink "constraint CallSrc(s) :- Call(s, d, u) => MCust[0].\n";
  sink "constraint CallDst(d) :- Call(s, d, u) => MCust[0].\n";
  sink "constraint BillCust(c) :- Bill(c, r, a) => MCust[0].\n";
  sink "constraint BillRate(r) :- Bill(c, r, a) => MRate[0].\n";
  sink "fd OneRate Bill: cust -> rate.\n";
  sink "query QB(c) :- Call(c, d, u), Bill(c, r, a).\n"

(* ------------------------------------------------------------------ *)
(* ladder: hardness rungs over the Theorem 3.6 reduction.  Rung sizes
   grow slowly — the decide cost is Σ₂ᵖ in them. *)

let ladder_params rung =
  let r = max 1 rung in
  (* forall, exists, clauses *)
  ((r + 1) / 2, (r + 2) / 2, r + 2)

let ladder_scenario ~rung ~seed =
  let n_forall, n_exists, n_clauses = ladder_params rung in
  let fe = Ric_reductions.Sat.random_fe ~seed ~n_forall ~n_exists ~n_clauses in
  let inst = Ric_reductions.Rcdp_hardness.of_fe fe in
  let master = inst.Ric_reductions.Rcdp_hardness.master in
  let ccs =
    List.map
      (fun (ind : Ind.t) ->
        (ind.Ind.ind_name, Ind.to_cc inst.Ric_reductions.Rcdp_hardness.schema ind))
      inst.Ric_reductions.Rcdp_hardness.inds
  in
  {
    Ric_text.Scenario.db_schema = inst.Ric_reductions.Rcdp_hardness.schema;
    master_schema = inst.Ric_reductions.Rcdp_hardness.master_schema;
    db = inst.Ric_reductions.Rcdp_hardness.db;
    master;
    queries =
      [ ("QL", Ric_query.Lang.Q_cq inst.Ric_reductions.Rcdp_hardness.query) ];
    ccs;
    ctables = [];
    checker = Ric_text.Scenario.compile ~master ccs;
  }

let ladder ~rung ~seed sink =
  let ppf =
    Format.make_formatter (fun s pos len -> sink (String.sub s pos len)) ignore
  in
  Format.fprintf ppf "# generated: ric gen ladder (rung %d)@." (max 1 rung);
  Ric_text.Scenario.pp ppf (ladder_scenario ~rung ~seed);
  Format.pp_print_flush ppf ()

(* ------------------------------------------------------------------ *)

let emit family ~tuples ~seed ~rung sink =
  match family with
  | Triple -> triple ~tuples ~seed sink
  | Telco -> telco ~tuples ~seed sink
  | Ladder -> ladder ~rung ~seed sink

let to_string family ~tuples ~seed ~rung =
  let buf = Buffer.create 4096 in
  emit family ~tuples ~seed ~rung (Buffer.add_string buf);
  Buffer.contents buf

(* The expected total data rows of an emission — what the ingest bench
   divides elapsed time by. *)
let total_rows family ~tuples =
  match family with
  | Triple -> tuples + max 2 (tuples / 10)
  | Telco -> tuples + max 2 (tuples / 10) + 8
  | Ladder -> 0 (* schema-bounded, not tuple-scaled *)

open Ric_relational
open Ric_query
open Ric_constraints

module Metrics = Ric_obs.Metrics
module Trace = Ric_obs.Trace
module Profile = Ric_obs.Profile

(* Par-mode observability: counters live at coordinator/task
   granularity (per search / per task / per steal / per stop-flag
   trip), never per search leaf, so seq-mode throughput is untouched. *)
let m_par_searches =
  Metrics.counter ~help:"parallel top-level searches started"
    "ric_search_par_searches_total"

let m_par_tasks =
  Metrics.counter
    ~help:"subtree tasks pushed onto the work-stealing frontier"
    "ric_search_par_branches_total"

let m_par_cancels =
  Metrics.counter
    ~help:"stop-flag trips propagated to sibling workers (first witness, exhaustion or error)"
    "ric_search_cancel_propagations_total"

let m_steals =
  Metrics.counter
    ~help:"frontier tasks popped by a worker other than their producer"
    "ric_search_steal_total"

let m_worker_steps wid =
  Metrics.counter
    ~help:"search steps executed per parallel worker (utilisation)"
    ~labels:[ ("worker", string_of_int wid) ]
    "ric_search_worker_steps_total"

(* Injection point for the fault harness: called at the start of every
   frontier task a par worker executes.  The service layer arms it from
   RIC_FAULTS (point "search_worker") at module init; the default is a
   no-op.  A hook ref keeps the layering acyclic — ric_complete cannot
   see ric_service's Faults module. *)
let fault_hook : (unit -> unit) ref = ref ignore
let set_fault_hook f = fault_hook := f

let neqs_ground_ok (tab : Tableau.t) mu =
  List.for_all
    (fun (s, t) ->
      match Valuation.term_value mu s, Valuation.term_value mu t with
      | Some a, Some b -> not (Value.equal a b)
      | _ -> true)
    tab.Tableau.neqs

(* Remove exactly one occurrence by physical identity: a tableau may
   legitimately repeat a pattern atom, and [List.filter (!=)] would
   silently drop every shared duplicate along with the picked one. *)
let rec remove_one a = function
  | [] -> []
  | x :: rest -> if x == a then rest else x :: remove_one a rest

(* The greedy fewest-unbound-first atom pick depends only on the {e
   set} of bound variables — never on their values — and that set is
   the same in every branch at the same tree position, so the whole
   instantiation order can be computed once per search instead of once
   per node.  [plan_levels] replays the pick: at each level the atom
   with the fewest unbound variables is selected (earliest atom wins
   ties, matching the old per-node fold), its unbound variables and
   their candidate lists are recorded, and its variables are marked
   bound.  Every branch then instantiates atoms in exactly this order,
   which is what lets par-mode subtree tasks align with the sequential
   tree: same nodes, same ticks, same prunes, same verdict. *)
type level = {
  l_atom : Atom.t;
  l_doms : (string * Value.t list) list; (* unbound vars × candidates *)
  l_width : int; (* candidate combinations at this level (capped) *)
}

let plan_levels ~adom (tab : Tableau.t) =
  let var_doms = Tableau.var_domains tab in
  let cands x =
    match List.assoc_opt x var_doms with
    | Some d -> Adom.candidates adom d
    | None -> Adom.candidates adom Domain.Infinite
  in
  let bound = Hashtbl.create 16 in
  let unbound a =
    List.filter (fun x -> not (Hashtbl.mem bound x)) (Atom.vars a)
  in
  let rec go acc atoms =
    match atoms with
    | [] -> List.rev acc
    | _ ->
      let best =
        List.fold_left
          (fun best a ->
            let n = List.length (unbound a) in
            match best with
            | Some (_, m) when m <= n -> best
            | _ -> Some (a, n))
          None atoms
      in
      (match best with
       | None -> List.rev acc
       | Some (a, _) ->
         let vars = unbound a in
         let doms = List.map (fun x -> (x, cands x)) vars in
         let width =
           List.fold_left
             (fun w (_, cs) -> min 1_000_000 (w * List.length cs))
             1 doms
         in
         List.iter (fun x -> Hashtbl.replace bound x ()) vars;
         go ({ l_atom = a; l_doms = doms; l_width = width } :: acc)
           (remove_one a atoms))
  in
  Array.of_list (go [] tab.Tableau.patterns)

(* Everything immutable a search shares across branches (and, in par
   mode, across worker domains): the checker's index store is
   lock-free on hits, the databases persistent. *)
type ctx = {
  c_tab : Tableau.t;
  c_chk : Checker.t;
  c_base : Database.t; (* the fixed part of every checked database *)
  c_delta_ok : bool; (* the root satisfies every CC *)
  c_levels : level array;
  c_gens : Checker.gen array; (* each level's candidates *)
}

(* A level's candidates: drawn from its generator CCs once the root
   holds, so that only the other CCs are checked per step; otherwise
   the plain product, every step fully checked. *)
let level_gen ~chk ~delta_ok (a : Atom.t) doms =
  if delta_ok then Checker.generator chk a doms else Checker.product doms

(* The root is [base] itself: in [`Against_base D] mode the search
   checks [D ∪ μ(T)], in [`Delta_only] mode [μ(T)] alone.  Once the
   root satisfies every CC, every step only needs the delta check (the
   constraints are monotone, so only joins through the new tuple can
   break them); otherwise every step runs the full check, which fails
   (or, for an unsafe LHS, raises) exactly where a re-check from
   scratch would. *)
let make_ctx ~master ~ccs ~mode ~levels (tab : Tableau.t) =
  let empty = Database.empty tab.Tableau.schema in
  let base = match mode with `Against_base db -> db | `Delta_only -> empty in
  let chk = Checker.create ~master ccs in
  let delta_ok =
    match Checker.check chk ~base ~delta:empty with
    | None -> true
    | Some _ | (exception Invalid_argument _) -> false
  in
  { c_tab = tab; c_chk = chk; c_base = base; c_delta_ok = delta_ok;
    c_levels = levels;
    c_gens = Array.map (fun l -> level_gen ~chk ~delta_ok l.l_atom l.l_doms) levels }

(* The candidates of level [lv] under [mu].  Par-mode pin-splitting
   seeds [mu] with some of the level's own variables; those are read
   from [mu] and only the rest enumerated (tick-neutral: the pinned
   tasks' candidates partition the level's).  The sequential path
   never pins, so it keeps the precomputed generator. *)
let gen_at ctx lv mu =
  let l = ctx.c_levels.(lv) in
  if List.exists (fun (x, _) -> Valuation.mem x mu) l.l_doms then
    level_gen ~chk:ctx.c_chk ~delta_ok:ctx.c_delta_ok l.l_atom
      (List.filter (fun (x, _) -> not (Valuation.mem x mu)) l.l_doms)
  else ctx.c_gens.(lv)

(* Enumerate every candidate instantiation of the atom at level [lv],
   charging one budget tick per candidate, and call [child] with the
   extended state for each candidate that passes the inequality and
   constraint checks.  Exists-style: stops at the first [true].
   [prof] is this worker's private explain recorder ([None] on the
   production path): each budget tick is mirrored as a level step, and
   a pruned branch is attributed to the constraint the check names. *)
let expand ctx ~budget ~prof ~on_prune lv mu delta child =
  let a = ctx.c_levels.(lv).l_atom in
  Checker.generate (gen_at ctx lv mu) mu (fun mu' ->
    (* profile before tick: [tick] counts the step even when it raises
       [Exhausted], so attributing first keeps a timed-out run's
       profile in exact agreement with the budget's step total *)
    (match prof with None -> () | Some sr -> Profile.step sr lv);
    Budget.tick budget;
    if not (neqs_ground_ok ctx.c_tab mu') then false
    else
      match Valuation.tuple_of_terms mu' a.Atom.args with
      | None -> assert false
      | Some tuple ->
        let delta' = Database.add_tuple delta a.Atom.rel tuple in
        let violated =
          if ctx.c_delta_ok then
            Checker.check_generated ctx.c_chk ~base:ctx.c_base ~delta:delta'
              ~rel:a.Atom.rel ~tuple
          else Checker.check ctx.c_chk ~base:ctx.c_base ~delta:delta'
        in
        (match violated with
         | None -> child mu' delta'
         | Some _ ->
           (match prof with
            | None -> ()
            | Some sr -> Profile.prune sr lv violated);
           on_prune ();
           false))

let rec dfs ctx ~budget ~prof ~on_prune ~visit lv mu delta =
  if lv = Array.length ctx.c_levels then
    if neqs_ground_ok ctx.c_tab mu then visit mu delta else false
  else
    expand ctx ~budget ~prof ~on_prune lv mu delta
      (dfs ctx ~budget ~prof ~on_prune ~visit (lv + 1))

let level_names ctx = Array.map (fun l -> l.l_atom.Atom.rel) ctx.c_levels

(* What explain shows as each level's candidate source. *)
let level_sources ctx =
  Array.map
    (fun g ->
      match Checker.sources g with
      | [] -> "adom"
      | names -> String.concat "," names)
    ctx.c_gens

let iter_valid ?(budget = Budget.unlimited) ?profile ~master ~ccs ~mode ~adom
    ?(on_prune = fun () -> ()) (tab : Tableau.t) visit =
  Budget.check_now budget;
  let levels = plan_levels ~adom tab in
  let ctx = make_ctx ~master ~ccs ~mode ~levels tab in
  let root = Database.empty tab.Tableau.schema in
  match profile with
  | None -> dfs ctx ~budget ~prof:None ~on_prune ~visit 0 Valuation.empty root
  | Some p ->
    (* merge even when the budget exhausts mid-search: a timeout
       verdict still reports where the spent steps went *)
    let sr =
      Profile.start_search p ~names:(level_names ctx) ~sources:(level_sources ctx)
    in
    Fun.protect ~finally:(fun () -> Profile.finish_search p sr) @@ fun () ->
    dfs ctx ~budget ~prof:(Some sr) ~on_prune ~visit 0 Valuation.empty root

(* A frontier task is one subtree of the sequential search tree: "all
   levels below [t_lv] under this partial state".  Tasks exist only at
   atom boundaries, so executing every task exactly once reproduces the
   sequential tree node for node — step totals, prune counts and
   verdicts all coincide with seq mode. *)
type task = {
  t_lv : int;
  t_mu : Valuation.t;
  t_delta : Database.t;
  t_depth : int; (* splits along this path, capped *)
  t_producer : int; (* worker that pushed it, for the steal counter *)
  mutable t_attempts : int; (* crash retries consumed *)
}

(* Splitting one level deeper than this buys nothing: subtrees near the
   leaves are smaller than the push/pop they cost. *)
let depth_cap = 8

(* Parallel top-level search, reworked for OCaml 5 multicore.

   Work-stealing over a subproblem frontier: the coordinator seeds a
   Treiber-stack frontier with the root task; any worker that pops a
   task either runs its whole subtree inline (the common case) or — when
   the frontier is starved (fewer queued tasks than workers) and the
   level still branches — expands just one level and pushes each
   surviving child subtree for idle workers to steal.  Skewed
   partitions therefore split below the first variable on demand
   instead of degenerating to one long sequential branch.

   Shared-state discipline: the hot path takes no locks ([Intern],
   [Kernel.Store] and [Rix] publish through atomics; the frontier is a
   CAS list; step accounting is one [Atomic.fetch_and_add] per tick via
   {!Budget.fork_shared}, enforcing the step cap exactly instead of
   merging per-child counts at job end).  Only [visit] / [on_prune]
   delivery serialises on a mutex, at visit/task granularity.

   A task that raises anything other than [Budget.Exhausted] (e.g. an
   injected worker crash) is retried exactly once; a second failure
   records the error, trips the stop flag and the coordinator re-raises
   — a crash can cost duplicated work, never a hang or a wrong
   verdict. *)
let iter_valid_par ?(budget = Budget.unlimited) ?profile ~domains
    ~master ~ccs ~mode ~adom ?(on_prune = fun () -> ()) (tab : Tableau.t) visit
    =
  Budget.check_now budget;
  (* [domains] partitions the work; the pool never runs more worker
     domains than the machine has cores — oversubscribing a saturated
     runtime only adds GC-synchronisation cost.  RIC_SEARCH_FORCE_WORKERS
     overrides the clamp (scaling sweeps, concurrency tests). *)
  let clamp =
    match
      Option.bind
        (Sys.getenv_opt "RIC_SEARCH_FORCE_WORKERS")
        int_of_string_opt
    with
    | Some n when n > 0 -> n
    | _ -> Stdlib.Domain.recommended_domain_count ()
  in
  let workers = max 1 (min domains clamp) in
  let levels = plan_levels ~adom tab in
  let splittable = Array.exists (fun l -> l.l_width >= 2) levels in
  if workers <= 1 || not splittable then
    (* one worker, or no level branches at all: the frontier cannot
       produce parallelism, so run the sequential engine directly —
       same tree, zero coordination overhead *)
    iter_valid ~budget ?profile ~master ~ccs ~mode ~adom ~on_prune tab visit
  else begin
    (* one checker for every worker: sharing across domains is safe
       and keeps index reuse across subtrees *)
    let ctx = make_ctx ~master ~ccs ~mode ~levels tab in
    let n_levels = Array.length levels in
    let stop = Atomic.make false in
    (* count each trip of the stop flag once, whoever races to it *)
    let trip_stop () =
      if not (Atomic.exchange stop true) then Metrics.incr m_par_cancels
    in
    let mx = Mutex.create () in
    let found = ref false in
    let exhausted = ref None in
    let error = ref None in
    let shared = Atomic.make 0 in
    (* Treiber stack of subtree tasks; [queued] feeds the starvation
       check, [remaining] counts popped-but-unfinished plus queued
       tasks for termination detection. *)
    let frontier = Atomic.make [] in
    let queued = Atomic.make 0 in
    let remaining = Atomic.make 0 in
    let pushed = Atomic.make 0 in
    let push_cas t =
      Atomic.incr queued;
      let rec go () =
        let cur = Atomic.get frontier in
        if not (Atomic.compare_and_set frontier cur (t :: cur)) then go ()
      in
      go ()
    in
    let push_new t =
      Atomic.incr remaining;
      Atomic.incr pushed;
      Metrics.incr m_par_tasks;
      push_cas t
    in
    let pop () =
      let rec go () =
        match Atomic.get frontier with
        | [] -> None
        | t :: rest as cur ->
          if Atomic.compare_and_set frontier cur rest then begin
            Atomic.decr queued;
            Some t
          end
          else go ()
      in
      go ()
    in
    let locked f =
      Mutex.lock mx;
      match f () with
      | v ->
        Mutex.unlock mx;
        v
      | exception e ->
        Mutex.unlock mx;
        raise e
    in
    let visit_sync mu delta =
      locked (fun () ->
        let r = visit mu delta in
        if r then begin
          found := true;
          trip_stop ()
        end;
        r)
    in
    (* prunes are counted locally and flushed under the visit mutex
       once per task — a search prunes constantly, and a lock per prune
       is exactly the coordination cost this path exists to avoid *)
    let flush_prunes pr =
      if !pr > 0 then begin
        let n = !pr in
        pr := 0;
        locked (fun () ->
          for _ = 1 to n do
            on_prune ()
          done)
      end
    in
    let exec_task wid child_budget sr pr t =
      !fault_hook ();
      let on_prune_local () = incr pr in
      (* When the frontier is starved (fewer queued tasks than
         workers), split the popped task instead of running it whole.
         Preferred split: {e pin} the outermost not-yet-pinned
         variable of the current level that the level's generator gives
         two values or more — one child task per value, no ticks spent,
         so skewed partitions keep subdividing on demand; the variables
         before it have one value each and are pinned to it in every
         child.  When no variable of the level has two values, descend
         instead: expand the level (its ticks and checks) and push one
         task per surviving child subtree.  Tasks only ever cut the
         tree at variable or atom boundaries, so step/prune/verdict
         parity with seq is preserved. *)
      let rec split mu =
        match Checker.first_values (gen_at ctx t.t_lv mu) mu with
        | Some (x, [ v ]) -> split (Valuation.add x v mu)
        | Some (x, (_ :: _ :: _ as vs)) -> `Pin (mu, x, vs)
        | Some (_, []) | None -> if t.t_lv + 1 < n_levels then `Descend else `Run
      in
      let choice =
        if t.t_depth >= depth_cap || Atomic.get queued >= workers then `Run
        else split t.t_mu
      in
      match choice with
      | `Pin (mu, x, cs) ->
        List.iter
          (fun v ->
            push_new
              {
                t with
                t_mu = Valuation.add x v mu;
                t_depth = t.t_depth + 1;
                t_producer = wid;
                t_attempts = 0;
              })
          cs
      | `Descend ->
        (* a witness can only appear at a leaf, so the discarded bool
           is always [false] here *)
        ignore
          (expand ctx ~budget:child_budget ~prof:sr ~on_prune:on_prune_local
             t.t_lv t.t_mu t.t_delta
             (fun mu' delta' ->
               push_new
                 {
                   t_lv = t.t_lv + 1;
                   t_mu = mu';
                   t_delta = delta';
                   t_depth = t.t_depth + 1;
                   t_producer = wid;
                   t_attempts = 0;
                 };
               false))
      | `Run ->
        ignore
          (dfs ctx ~budget:child_budget ~prof:sr ~on_prune:on_prune_local
             ~visit:visit_sync t.t_lv t.t_mu t.t_delta)
    in
    let names = level_names ctx and sources = level_sources ctx in
    let worker wid =
      let child = Budget.fork_shared ~shared ~cancel:stop budget in
      (* a private recorder per worker domain: plain array bumps on the
         hot path, merged into the shared aggregate once at the end *)
      let sr =
        match profile with
        | None -> None
        | Some p -> Some (Profile.start_search p ~names ~sources)
      in
      let pr = ref 0 in
      let rec loop spins =
        if Atomic.get stop then ()
        else
          match pop () with
          | Some t ->
            if t.t_producer <> wid then Metrics.incr m_steals;
            let completed =
              match exec_task wid child sr pr t with
              | () -> true
              | exception Budget.Exhausted reason ->
                locked (fun () ->
                  match reason with
                  | Budget.Cancelled when Atomic.get stop ->
                    () (* our own first-witness / stop cancellation *)
                  | r -> if !exhausted = None then exhausted := Some r);
                trip_stop ();
                true
              | exception e ->
                if t.t_attempts = 0 then begin
                  (* retry a crashed task exactly once: requeue it (it
                     is still counted by [remaining]) so one injected
                     worker crash costs duplicated work, not a verdict *)
                  t.t_attempts <- 1;
                  push_cas t;
                  false
                end
                else begin
                  locked (fun () -> if !error = None then error := Some e);
                  trip_stop ();
                  true
                end
            in
            flush_prunes pr;
            if completed then Atomic.decr remaining;
            loop 0
          | None ->
            if Atomic.get remaining = 0 then ()
            else begin
              (* brief spin, then sleep: on an oversubscribed host an
                 idle domain must yield the core or it starves the
                 worker actually holding the work *)
              if spins < 64 then Stdlib.Domain.cpu_relax ()
              else Unix.sleepf 1e-4;
              loop (spins + 1)
            end
      in
      loop 0;
      (match profile, sr with
       | Some p, Some s -> Profile.finish_search p s
       | _ -> ());
      let local = Budget.steps child in
      Metrics.add (m_worker_steps wid) local;
      local
    in
    Metrics.incr m_par_searches;
    let sp = Trace.start "search.par" in
    Trace.set_int sp "workers" workers;
    Trace.set_int sp "levels" n_levels;
    push_new
      {
        t_lv = 0;
        t_mu = Valuation.empty;
        t_delta = Database.empty tab.Tableau.schema;
        t_depth = 0;
        t_producer = 0;
        t_attempts = 0;
      };
    let others =
      List.init (workers - 1) (fun i ->
        Stdlib.Domain.spawn (fun () -> worker (i + 1)))
    in
    let _self_steps = worker 0 in
    List.iter (fun d -> ignore (Stdlib.Domain.join d)) others;
    let total = Atomic.get shared in
    Trace.set_int sp "steps" total;
    Trace.set_int sp "tasks" (Atomic.get pushed);
    Trace.finish sp;
    (* the shared counter already holds the family total; clamp the
       fold so a cap-overshooting final tick race never inflates the
       parent past its allowance *)
    Budget.add_steps budget (min total (Budget.remaining budget));
    (match !error with Some e -> raise e | None -> ());
    if !found then true
    else begin
      (match !exhausted with
       | Some r -> raise (Budget.Exhausted r)
       | None -> ());
      Budget.check_now budget;
      false
    end
  end

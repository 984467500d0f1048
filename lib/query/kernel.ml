open Ric_relational

(* Compiled match kernel.

   A conjunctive body is compiled once into a slot-addressed [plan]:
   variables are numbered into an int slot space and every argument
   becomes either a slot ([>= 0]) or an interned constant (encoded as
   [-(id + 1)]).  Running a plan keeps the current valuation in a
   mutable register array ([-1] = unbound) with a trail for undo, so
   extending and retracting a binding costs two array writes instead
   of a [Map.Make(String)] rebalance, and every equality test is an
   [int] compare on interned ids.

   Relations are reached through a {!Store}: a cache of {!Rix.t}
   indexes keyed by relation name and validated by physical identity
   of the source relation, so an unchanged database pays for indexing
   once per store instead of once per solve.  Small, changing deltas
   ride alongside as an [extra] overlay of interned rows scanned
   linearly — candidate tuples for an atom are (bucket of the base
   index) ∪ (overlay rows), which is exactly base ∪ delta up to
   harmless duplicates. *)

let m_builds =
  Ric_obs.Metrics.counter
    ~help:"relation indexes built by the compiled match kernel"
    "ric_match_index_builds_total"

let m_reuses =
  Ric_obs.Metrics.counter
    ~help:"relation indexes reused across solves from a kernel store"
    "ric_match_index_reuses_total"

type catom = {
  c_rel : string;
  c_args : int array; (* arg >= 0: slot; arg < 0: constant -(id+1) *)
}

type plan = {
  p_atoms : catom array;
  p_neqs : (int * int) array;
  p_nslots : int;
  p_vars : string array; (* slot -> variable name *)
  p_slots : (string, int) Hashtbl.t; (* read-only after compile *)
}

let const_code c = -Intern.id c - 1

let compile ?(extra_vars = []) atoms neqs =
  let slots = Hashtbl.create 16 in
  let vars = ref [] in
  let n = ref 0 in
  let slot_of x =
    match Hashtbl.find_opt slots x with
    | Some s -> s
    | None ->
      let s = !n in
      incr n;
      Hashtbl.add slots x s;
      vars := x :: !vars;
      s
  in
  List.iter (fun x -> ignore (slot_of x)) extra_vars;
  let enc = function
    | Term.Var x -> slot_of x
    | Term.Const c -> const_code c
  in
  let p_atoms =
    Array.of_list
      (List.map
         (fun (a : Atom.t) ->
           { c_rel = a.Atom.rel; c_args = Array.of_list (List.map enc a.Atom.args) })
         atoms)
  in
  let p_neqs = Array.of_list (List.map (fun (s, t) -> (enc s, enc t)) neqs) in
  {
    p_atoms;
    p_neqs;
    p_nslots = !n;
    p_vars = Array.of_list (List.rev !vars);
    p_slots = slots;
  }

let encode_terms plan ts =
  Array.of_list
    (List.map
       (function
         | Term.Var x ->
           (match Hashtbl.find_opt plan.p_slots x with
            | Some s -> s
            | None ->
              invalid_arg ("Kernel.encode_terms: variable not in plan: " ^ x))
         | Term.Const c -> const_code c)
       ts)

let init_binds plan mu =
  List.filter_map
    (fun (x, c) ->
      match Hashtbl.find_opt plan.p_slots x with
      | Some s -> Some (s, Intern.id c)
      | None -> None)
    (Valuation.bindings mu)

(* Unify an encoded argument vector against a concrete interned row
   with no registers in play — used to pin a probe's atom onto an
   inserted tuple before running the rest of its plan. *)
let unify_encoded args row =
  let n = Array.length args in
  if Array.length row <> n then None
  else
    let rec go i acc =
      if i = n then Some acc
      else
        let a = args.(i) and x = row.(i) in
        if a < 0 then if a = -x - 1 then go (i + 1) acc else None
        else
          match List.assoc_opt a acc with
          | Some x' -> if x = x' then go (i + 1) acc else None
          | None -> go (i + 1) ((a, x) :: acc)
    in
    go 0 []

let term_ids enc regs =
  let n = Array.length enc in
  let out = Array.make n 0 in
  let rec go i =
    if i = n then Some out
    else
      let a = enc.(i) in
      if a < 0 then begin
        out.(i) <- -a - 1;
        go (i + 1)
      end
      else if regs.(a) >= 0 then begin
        out.(i) <- regs.(a);
        go (i + 1)
      end
      else None
  in
  go 0

let valuation_of plan ~init regs =
  let v = ref init in
  for s = 0 to plan.p_nslots - 1 do
    let id = regs.(s) in
    if id >= 0 then v := Valuation.add plan.p_vars.(s) (Intern.value id) !v
  done;
  !v

(* Hash set of interned rows: the compiled representation of a cached
   RHS relation, so "does this answer escape the bound?" is one probe
   on an [int array] key. *)
module Rowset = struct
  module H = Hashtbl.Make (struct
    type t = int array

    let equal = Stdlib.( = )
    let hash = Hashtbl.hash
  end)

  type t = unit H.t

  let of_relation rel =
    let h = H.create (max 16 (Relation.cardinal rel)) in
    Relation.iter (fun tu -> H.replace h (Intern.row tu) ()) rel;
    h

  let mem h row = H.mem h row
end

(* The index cache is read-mostly: after the first few solves every
   probe is a hit on an unchanged relation.  The hit path is
   lock-free — one [Atomic.get] of a persistent-map snapshot plus a
   physical-identity check — so concurrent search workers sharing a
   store never contend.  Only a miss (new relation, or a relation that
   changed identity) takes the mutex, double-checks against the latest
   snapshot, builds, and publishes a new snapshot with [Atomic.set].
   Publishing a persistent map wholesale means readers always see a
   consistent (possibly slightly stale) cache; a stale read at worst
   causes one redundant double-checked lookup under the lock, never a
   wrong index: the [Rix.source] identity check validates every hit. *)
module Store = struct
  module SMap = Map.Make (String)

  let m_lock_acquisitions =
    Ric_obs.Metrics.counter
      ~help:
        "mutex acquisitions by kernel index stores (cache misses only; \
         index-cache hits are lock-free)"
      "ric_store_lock_acquisitions_total"

  type t = {
    snap : Rix.t SMap.t Atomic.t;
    mx : Mutex.t;
  }

  let create () = { snap = Atomic.make SMap.empty; mx = Mutex.create () }

  let build_locked st name rel =
    (* another domain may have built it between our probe and the
       lock — re-check the latest snapshot before paying for a build *)
    match SMap.find_opt name (Atomic.get st.snap) with
    | Some rx when Rix.source rx == rel ->
      Ric_obs.Metrics.incr m_reuses;
      rx
    | _ ->
      let rx = Rix.build rel in
      Atomic.set st.snap (SMap.add name rx (Atomic.get st.snap));
      Ric_obs.Metrics.incr m_builds;
      rx

  let clear st = Atomic.set st.snap SMap.empty

  let rix st name rel =
    match SMap.find_opt name (Atomic.get st.snap) with
    | Some rx when Rix.source rx == rel ->
      Ric_obs.Metrics.incr m_reuses;
      rx
    | _ ->
      Mutex.lock st.mx;
      Ric_obs.Metrics.incr m_lock_acquisitions;
      (match build_locked st name rel with
       | rx ->
         Mutex.unlock st.mx;
         rx
       | exception e ->
         Mutex.unlock st.mx;
         raise e)
end

let run store ~lookup ?extra ?(init = []) plan on_match =
  let na = Array.length plan.p_atoms in
  let regs = Array.make (max 1 plan.p_nslots) (-1) in
  List.iter (fun (s, v) -> regs.(s) <- v) init;
  let rixes =
    Array.map (fun ca -> Store.rix store ca.c_rel (lookup ca.c_rel)) plan.p_atoms
  in
  let extras =
    match extra with
    | None -> Array.make (max 1 na) [||]
    | Some f -> Array.map (fun ca -> Array.of_list (f ca.c_rel)) plan.p_atoms
  in
  (* Static greedy join order, fixed once per run: most bound
     arguments first, then smallest relation — the same score the
     interpreted engine recomputed at every node.  Which slots are
     bound at depth [k] depends only on [init] and the atoms ordered
     before [k], never on the values branched on, so ordering up front
     is exact. *)
  let order = Array.init na (fun i -> i) in
  if na > 1 then begin
    let bound = Array.map (fun v -> v >= 0) regs in
    let taken = Array.make na false in
    let score i =
      let b = ref 0 in
      Array.iter
        (fun a -> if a < 0 || bound.(a) then incr b)
        plan.p_atoms.(i).c_args;
      (- !b, Rix.cardinal rixes.(i) + Array.length extras.(i))
    in
    for k = 0 to na - 1 do
      let best = ref (-1) and best_score = ref (0, 0) in
      for i = 0 to na - 1 do
        if not taken.(i) then begin
          let s = score i in
          if !best < 0 || compare s !best_score < 0 then begin
            best := i;
            best_score := s
          end
        end
      done;
      order.(k) <- !best;
      taken.(!best) <- true;
      Array.iter
        (fun a -> if a >= 0 then bound.(a) <- true)
        plan.p_atoms.(!best).c_args
    done
  end;
  (* Inequality schedule: each neq fires at the earliest depth where
     both sides are ground (depth 0 = before any atom); sides that
     never become ground are ignored, matching the interpreted
     engine's pending-forever behaviour. *)
  let neq_at = Array.make (na + 1) [] in
  if Array.length plan.p_neqs > 0 then begin
    let depth = Array.make (max 1 plan.p_nslots) max_int in
    List.iter (fun (s, _) -> depth.(s) <- 0) init;
    for k = 0 to na - 1 do
      Array.iter
        (fun a -> if a >= 0 && depth.(a) = max_int then depth.(a) <- k + 1)
        plan.p_atoms.(order.(k)).c_args
    done;
    Array.iter
      (fun (l, r) ->
        let d t = if t < 0 then 0 else depth.(t) in
        let dd = max (d l) (d r) in
        if dd <> max_int then neq_at.(dd) <- (l, r) :: neq_at.(dd))
      plan.p_neqs
  end;
  let neq_ok_at k =
    match neq_at.(k) with
    | [] -> true
    | l ->
      List.for_all
        (fun (a, b) ->
          let va = if a < 0 then -a - 1 else regs.(a) in
          let vb = if b < 0 then -b - 1 else regs.(b) in
          va <> vb)
        l
  in
  let trail = Array.make (max 1 plan.p_nslots) 0 in
  let tp = ref 0 in
  let unify_row args row =
    let n = Array.length args in
    if Array.length row <> n then false
    else
      let rec go i =
        if i = n then true
        else
          let a = args.(i) and x = row.(i) in
          if a < 0 then if a = -x - 1 then go (i + 1) else false
          else
            let cur = regs.(a) in
            if cur >= 0 then if cur = x then go (i + 1) else false
            else begin
              regs.(a) <- x;
              trail.(!tp) <- a;
              incr tp;
              go (i + 1)
            end
      in
      go 0
  in
  let rec go k =
    if k = na then on_match regs
    else begin
      let ai = order.(k) in
      let args = plan.p_atoms.(ai).c_args in
      let rix = rixes.(ai) and ex = extras.(ai) in
      let try_row row =
        let t0 = !tp in
        let stop = unify_row args row && neq_ok_at (k + 1) && go (k + 1) in
        while !tp > t0 do
          decr tp;
          regs.(trail.(!tp)) <- -1
        done;
        stop
      in
      (* probe a column bucket when some argument is already ground;
         overlay rows are always scanned (unification rejects the
         mismatches) *)
      let rec ground_pos i =
        if i >= Array.length args then None
        else
          let a = args.(i) in
          if a < 0 then Some (i, -a - 1)
          else if regs.(a) >= 0 then Some (i, regs.(a))
          else ground_pos (i + 1)
      in
      (match ground_pos 0 with
       | Some (col, v) ->
         List.exists (fun ri -> try_row (Rix.row rix ri)) (Rix.bucket rix col v)
         || Array.exists try_row ex
       | None ->
         Array.exists try_row (Rix.rows rix) || Array.exists try_row ex)
    end
  in
  neq_ok_at 0 && go 0

(* ------------------------------------------------------------------ *)
(* Plan memoisation: solving the same body again (CQ evaluation inside
   a decide loop, datalog rounds) reuses the compiled plan.  Keys are
   structural — [Cq.normalize] rebuilds its atom list on every call,
   so physical identity would never hit.  Bounded; the table resets
   rather than evicts, compilation is cheap. *)

let memo_mx = Mutex.create ()

let memo : (Atom.t list * (Term.t * Term.t) list, plan) Hashtbl.t =
  Hashtbl.create 64

let memo_cap = 256

let m_memo_evictions =
  Ric_obs.Metrics.counter
    ~help:"compiled plans dropped when the plan memo hit its cap"
    "ric_kernel_memo_evictions_total"

let plan_for atoms neqs =
  Mutex.lock memo_mx;
  match
    match Hashtbl.find_opt memo (atoms, neqs) with
    | Some p -> p
    | None ->
      let p = compile atoms neqs in
      if Hashtbl.length memo >= memo_cap then begin
        Ric_obs.Metrics.add m_memo_evictions (Hashtbl.length memo);
        Hashtbl.reset memo
      end;
      Hashtbl.add memo (atoms, neqs) p;
      p
  with
  | p ->
    Mutex.unlock memo_mx;
    p
  | exception e ->
    Mutex.unlock memo_mx;
    raise e

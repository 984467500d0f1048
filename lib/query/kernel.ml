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

   Each atom joins over its relation's own column index
   ({!Relation.bucket}), built on the relation at its first probe and
   reused by every later join over the same relation.  Small, changing
   deltas ride alongside as an {!Overlay} of interned rows scanned
   linearly — candidate tuples for an atom are (bucket of the base
   relation) ∪ (overlay rows), which is exactly base ∪ delta up to
   harmless duplicates.  A plan is {!bind}ed to its relations and
   overlays once, and each run reuses the bound scratch. *)

(* Builds are counted where a column index is built, in [Relation];
   reuses here, once per atom bound to a relation already indexed. *)
let m_reuses =
  Ric_obs.Metrics.counter
    ~help:"atoms bound to a relation whose column index is already built"
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

let pin_of_valuation plan mu =
  let binds =
    List.filter_map
      (fun (x, c) ->
        match Hashtbl.find_opt plan.p_slots x with
        | Some s -> Some (s, Intern.id c)
        | None -> None)
      (Valuation.bindings mu)
  in
  (Array.of_list (List.map fst binds), Array.of_list (List.map snd binds))

let ground enc regs out =
  let n = Array.length enc in
  let rec go i =
    i = n
    ||
    let a = enc.(i) in
    if a < 0 then begin
      out.(i) <- -a - 1;
      go (i + 1)
    end
    else
      let x = regs.(a) in
      x >= 0
      && begin
        out.(i) <- x;
        go (i + 1)
      end
  in
  go 0

let valuation_of plan ~init regs =
  let v = ref init in
  for s = 0 to plan.p_nslots - 1 do
    let id = regs.(s) in
    if id >= 0 then v := Valuation.add plan.p_vars.(s) (Intern.value id) !v
  done;
  !v

(* Tables keyed by interned rows, hashed and compared as ints, not
   through the polymorphic primitives. *)
module Rows = Hashtbl.Make (struct
  type t = int array

  let equal (a : t) b =
    let n = Array.length a in
    n = Array.length b
    &&
    let rec go i = i = n || (a.(i) = b.(i) && go (i + 1)) in
    go 0

  let hash (a : t) =
    let h = ref (Array.length a) in
    for i = 0 to Array.length a - 1 do
      h := (!h * 65599) + a.(i)
    done;
    !h land max_int
end)

(* Hash set of interned rows: the compiled representation of a cached
   RHS relation, so "does this answer escape the bound?" is one probe
   on an [int array] key. *)
module Rowset = struct
  type t = unit Rows.t

  let of_relation rel =
    let h = Rows.create (max 16 (Relation.cardinal rel)) in
    Array.iter (fun row -> Rows.replace h row ()) (Relation.rows rel);
    h

  let mem h row = Rows.mem h row
end

(* Interned overlay rows of one relation, kept as a stack: the small,
   changing part of a checked database that rides alongside its base
   index. *)
module Overlay = struct
  type t = {
    mutable rows : int array array;
    mutable n : int;
  }

  let create () = { rows = [||]; n = 0 }

  let push o row =
    if o.n = Array.length o.rows then begin
      let rows = Array.make (max 4 (2 * o.n)) [||] in
      Array.blit o.rows 0 rows 0 o.n;
      o.rows <- rows
    end;
    o.rows.(o.n) <- row;
    o.n <- o.n + 1

  let pop o = o.n <- o.n - 1
  let length o = o.n

  let iter f o =
    for i = 0 to o.n - 1 do
      f o.rows.(i)
    done
end

(* never pushed: the overlay of an atom bound without one *)
let no_overlay = Overlay.create ()

(* A plan bound to its sources: per atom, the base relation and the
   overlay, both resolved once at [bind]; and the scratch every run
   reuses — registers, undo trail, join order, inequality schedule —
   so a run allocates nothing of its own. *)
type bound = {
  b_plan : plan;
  b_rel : Relation.t array; (* per atom *)
  b_ov : Overlay.t array; (* per atom *)
  b_regs : int array; (* slot -> value id, -1 = unbound *)
  b_trail : int array;
  mutable b_tp : int;
  b_order : int array; (* depth -> atom *)
  b_taken : bool array; (* per atom, while ordering *)
  b_depth : int array; (* per slot: the depth binding it *)
  b_neq_at : int array; (* per inequality: the depth checking it *)
}

let bind ?overlay plan ~lookup =
  let na = Array.length plan.p_atoms and ns = max 1 plan.p_nslots in
  let resolve ca =
    let r = lookup ca.c_rel in
    if Relation.indexed r then Ric_obs.Metrics.incr m_reuses;
    r
  in
  {
    b_plan = plan;
    b_rel = Array.map resolve plan.p_atoms;
    b_ov =
      (match overlay with
       | None -> Array.make na no_overlay
       | Some f -> Array.map (fun ca -> f ca.c_rel) plan.p_atoms);
    b_regs = Array.make ns (-1);
    b_trail = Array.make ns 0;
    b_tp = 0;
    b_order = Array.init na Fun.id;
    b_taken = Array.make na false;
    b_depth = Array.make ns max_int;
    b_neq_at = Array.make (Array.length plan.p_neqs) max_int;
  }

(* Static greedy join order, fixed once per run: most bound arguments
   first, then smallest relation (base plus overlay), the
   earlier atom on a tie.  Which slots are bound at depth [k] depends
   only on the pin and the atoms ordered before [k], never on the
   values branched on, so ordering up front is exact.  [b_depth] marks
   the bound slots meanwhile. *)
let order_atoms b =
  let atoms = b.b_plan.p_atoms and depth = b.b_depth in
  let na = Array.length atoms in
  Array.fill b.b_taken 0 na false;
  for k = 0 to na - 1 do
    let best = ref (-1) and best_b = ref 0 and best_c = ref 0 in
    for i = 0 to na - 1 do
      if not b.b_taken.(i) then begin
        let nb = ref 0 in
        Array.iter
          (fun a -> if a < 0 || depth.(a) <= k then incr nb)
          atoms.(i).c_args;
        let c = Relation.cardinal b.b_rel.(i) + Overlay.length b.b_ov.(i) in
        if !best < 0 || !nb > !best_b || (!nb = !best_b && c < !best_c) then begin
          best := i;
          best_b := !nb;
          best_c := c
        end
      end
    done;
    b.b_order.(k) <- !best;
    b.b_taken.(!best) <- true;
    Array.iter
      (fun a -> if a >= 0 && depth.(a) = max_int then depth.(a) <- k + 1)
      atoms.(!best).c_args
  done

(* Inequality schedule: each neq fires at the earliest depth where
   both sides are ground (depth 0 = before any atom); sides that never
   become ground are ignored, matching the interpreted engine's
   pending-forever behaviour. *)
let schedule_neqs b =
  let depth = b.b_depth in
  Array.iteri
    (fun i (l, r) ->
      let d t = if t < 0 then 0 else depth.(t) in
      b.b_neq_at.(i) <- max (d l) (d r))
    b.b_plan.p_neqs

let neq_ok_at b k =
  let neqs = b.b_plan.p_neqs and regs = b.b_regs in
  let rec go i =
    i = Array.length neqs
    || (b.b_neq_at.(i) <> k
        ||
        let l, r = neqs.(i) in
        (if l < 0 then -l - 1 else regs.(l)) <> if r < 0 then -r - 1 else regs.(r))
       && go (i + 1)
  in
  go 0

let unify_row b args row =
  let n = Array.length args and regs = b.b_regs in
  Array.length row = n
  &&
  let rec go i =
    i = n
    ||
    let a = args.(i) and x = row.(i) in
    if a < 0 then a = -x - 1 && go (i + 1)
    else
      let cur = regs.(a) in
      if cur >= 0 then cur = x && go (i + 1)
      else begin
        regs.(a) <- x;
        b.b_trail.(b.b_tp) <- a;
        b.b_tp <- b.b_tp + 1;
        go (i + 1)
      end
  in
  go 0

(* the first argument already ground, or -1 *)
let rec ground_col regs args i =
  if i >= Array.length args then -1
  else
    let a = args.(i) in
    if a < 0 || regs.(a) >= 0 then i else ground_col regs args (i + 1)

let rec solve b k on_match =
  if k = Array.length b.b_order then on_match b.b_regs
  else begin
    let ai = b.b_order.(k) in
    let args = b.b_plan.p_atoms.(ai).c_args and rel = b.b_rel.(ai) in
    (* probe a column bucket when some argument is already ground;
       overlay rows are always scanned (unification rejects the
       mismatches) *)
    let col = ground_col b.b_regs args 0 and rows = Relation.rows rel in
    (if col >= 0 then
       let a = args.(col) in
       let v = if a < 0 then -a - 1 else b.b_regs.(a) in
       try_bucket b k args rows (Relation.bucket rel col v) on_match
     else try_rows b k args rows 0 on_match)
    || try_overlay b k args b.b_ov.(ai) 0 on_match
  end

and try_row b k args row on_match =
  let t0 = b.b_tp in
  let stop = unify_row b args row && neq_ok_at b (k + 1) && solve b (k + 1) on_match in
  while b.b_tp > t0 do
    b.b_tp <- b.b_tp - 1;
    b.b_regs.(b.b_trail.(b.b_tp)) <- -1
  done;
  stop

and try_bucket b k args rows ris on_match =
  match ris with
  | [] -> false
  | ri :: ris -> try_row b k args rows.(ri) on_match || try_bucket b k args rows ris on_match

and try_rows b k args rows i on_match =
  i < Array.length rows
  && (try_row b k args rows.(i) on_match || try_rows b k args rows (i + 1) on_match)

and try_overlay b k args (ov : Overlay.t) i on_match =
  i < ov.n && (try_row b k args ov.rows.(i) on_match || try_overlay b k args ov (i + 1) on_match)

let run b ~pin ~row on_match =
  let regs = b.b_regs in
  Array.fill regs 0 (Array.length regs) (-1);
  b.b_tp <- 0;
  (* the pin's bindings stay on the trail below every undo mark *)
  unify_row b pin row
  && begin
    (* one atom and no inequality: nothing to order or schedule *)
    if Array.length b.b_order > 1 || Array.length b.b_neq_at > 0 then begin
      let depth = b.b_depth in
      for s = 0 to Array.length regs - 1 do
        depth.(s) <- (if regs.(s) >= 0 then 0 else max_int)
      done;
      order_atoms b;
      schedule_neqs b
    end;
    neq_ok_at b 0 && solve b 0 on_match
  end

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

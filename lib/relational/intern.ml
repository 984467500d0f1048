(* Process-wide hash-consing of values into dense integer ids.  The
   compiled match kernel unifies and compares interned rows with plain
   [int] equality; the table only ever grows, so an id, once handed
   out, stays valid for the life of the process.

   Concurrency — the lock-free publication contract:

   The hot path ([id]/[row] on already-interned values) never takes a
   lock.  Lookups probe [fast], an open-addressing table of
   [slot option Atomic.t] cells published through an [Atomic.t]
   snapshot reference.  A slot is written exactly once, by an
   [Atomic.set] performed while holding [mx], after the slot's record
   is fully constructed; the release/acquire pairing of OCaml 5's
   atomics therefore guarantees that any reader that observes
   [Some slot] also observes the record's fields — an id read from
   [fast] is always a real, fully published id.  Readers that miss
   (empty cell reached, or a stale pre-resize snapshot) fall back to
   the mutex path, where the plain [Hashtbl] is the single source of
   truth; a "miss" on the lock-free table is thus always safe, never
   wrong.  Resizing allocates a fresh cell array, re-inserts every
   entry from the authoritative table and swaps the snapshot reference
   with one [Atomic.set]; readers holding the old snapshot see a
   consistent (merely older) table.

   The mutex serialises only true interning of new values — batch
   index builds, first-seen delta rows.  Every acquisition is counted
   by [ric_intern_lock_acquisitions_total], so "the search hot path
   takes zero intern locks" is a testable, benchmarkable statement
   rather than a comment.

   The reverse array is published via [Atomic] only after the new
   entry is written, and ids travel to other domains through
   synchronised structures (relations' atomically published column
   indexes, checkers built before spawning) or through [fast] itself, so every read of [rev.(i)] is
   ordered after the write of entry [i]. *)

let m_lock_acquisitions =
  Ric_obs.Metrics.counter
    ~help:
      "mutex acquisitions by the interning table (misses and true \
       interning only; the already-interned fast path is lock-free)"
    "ric_intern_lock_acquisitions_total"

let m_growths =
  Ric_obs.Metrics.counter
    ~help:
      "capacity growths of the interning structures (probe-table \
       snapshot swaps and reverse-array doublings); bulk loads that \
       [reserve] first should leave this flat"
    "ric_intern_growth_total"

let mx = Mutex.create ()

(* Authoritative mapping, guarded by [mx]. *)
let tbl : (Value.t, int) Hashtbl.t = Hashtbl.create 1024
let next = ref 0 (* guarded by [mx] *)

let rev : Value.t array Atomic.t = Atomic.make (Array.make 1024 (Value.Int 0))
let count = Atomic.make 0

(* Lock-free read-mostly index: open addressing with linear probing
   over a power-of-two cell array, at most half full.  Cells are
   immutable once set. *)
type slot = { s_val : Value.t; s_id : int }

let fast : slot option Atomic.t array Atomic.t =
  Atomic.make (Array.init 2048 (fun _ -> Atomic.make None))

(* [-1] when absent from this snapshot (the caller re-checks under the
   lock — absence here is a hint, not an answer). *)
let probe arr v =
  let n = Array.length arr in
  let mask = n - 1 in
  let h = Value.hash v land mask in
  let rec go i seen =
    if seen >= n then -1
    else
      match Atomic.get (Array.unsafe_get arr i) with
      | None -> -1
      | Some s ->
        if Value.equal s.s_val v then s.s_id else go ((i + 1) land mask) (seen + 1)
  in
  go h 0

(* Guarded by [mx]: the cell array is at most half full, so an empty
   cell always exists. *)
let insert_into arr v id =
  let mask = Array.length arr - 1 in
  let rec go i =
    match Atomic.get (Array.unsafe_get arr i) with
    | None -> Atomic.set (Array.unsafe_get arr i) (Some { s_val = v; s_id = id })
    | Some _ -> go ((i + 1) land mask)
  in
  go (Value.hash v land mask)

(* Guarded by [mx].  [cells] is the desired cell count (rounded up to
   a power of two, never below the current size). *)
let grow_fast_locked_to cells =
  let arr = Atomic.get fast in
  let want = ref (Array.length arr) in
  while !want < cells do
    want := 2 * !want
  done;
  if !want > Array.length arr then begin
    let bigger = Array.init !want (fun _ -> Atomic.make None) in
    Hashtbl.iter (fun v id -> insert_into bigger v id) tbl;
    Ric_obs.Metrics.incr m_growths;
    Atomic.set fast bigger
  end

let grow_fast_locked () = grow_fast_locked_to (2 * Array.length (Atomic.get fast))

(* Guarded by [mx]: make [rev] hold at least [n] entries. *)
let grow_rev_locked_to n =
  let arr = Atomic.get rev in
  if n > Array.length arr then begin
    let want = ref (Array.length arr) in
    while !want < n do
      want := 2 * !want
    done;
    let bigger = Array.make !want (Value.Int 0) in
    Array.blit arr 0 bigger 0 (Array.length arr);
    Ric_obs.Metrics.incr m_growths;
    Atomic.set rev bigger
  end

let intern_locked v =
  match Hashtbl.find_opt tbl v with
  | Some i -> i
  | None ->
    let i = !next in
    let arr = Atomic.get rev in
    (if i < Array.length arr then arr.(i) <- v
     else begin
       let bigger = Array.make (2 * Array.length arr) v in
       Array.blit arr 0 bigger 0 (Array.length arr);
       bigger.(i) <- v;
       Ric_obs.Metrics.incr m_growths;
       Atomic.set rev bigger
     end);
    next := i + 1;
    Hashtbl.add tbl v i;
    Atomic.incr count;
    let cells = Atomic.get fast in
    if 2 * (i + 1) >= Array.length cells then grow_fast_locked ()
    else insert_into cells v i;
    i

let lock () =
  Mutex.lock mx;
  Ric_obs.Metrics.incr m_lock_acquisitions

let id v =
  match probe (Atomic.get fast) v with
  | i when i >= 0 -> i
  | _ ->
    lock ();
    let i = intern_locked v in
    Mutex.unlock mx;
    i

let row t =
  let n = Tuple.arity t in
  let out = Array.make n 0 in
  let arr = Atomic.get fast in
  let rec all_fast i =
    i = n
    ||
    match probe arr (Tuple.get t i) with
    | -1 -> false
    | id ->
      out.(i) <- id;
      all_fast (i + 1)
  in
  if all_fast 0 then out
  else begin
    (* at least one genuinely new value: intern the whole row under a
       single acquisition, as before *)
    lock ();
    let r = Array.init n (fun i -> intern_locked (Tuple.get t i)) in
    Mutex.unlock mx;
    r
  end

let value i = (Atomic.get rev).(i)

let size () = Atomic.get count

let reserve n =
  if n > 0 then begin
    lock ();
    (* the probe table stays at most half full, so [n] live entries
       need at least [2n] cells *)
    grow_rev_locked_to n;
    grow_fast_locked_to (2 * n);
    Mutex.unlock mx
  end

let lock_acquisitions () = Ric_obs.Metrics.counter_value m_lock_acquisitions

let growths () = Ric_obs.Metrics.counter_value m_growths

let () =
  Ric_obs.Metrics.gauge_fn
    ~help:"distinct values in the process-wide interning table"
    "ric_intern_entries" size

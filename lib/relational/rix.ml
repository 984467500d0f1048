(* Interned, column-indexed view of one relation.  Built once per
   (store, relation) pair and reused across every solve that sees the
   same physical relation — the persistent replacement for the hash
   indexes the match engine used to rebuild from scratch on every
   call.

   Rows are interned up front; column buckets are built lazily on the
   first probe of that column (a solve typically probes one or two of
   them) and published through [Atomic], so concurrent domains either
   see a fully built table or build it themselves under the mutex. *)

(* buckets keyed by value id: ids are dense, so the id is its own hash
   — no polymorphic hashing or compare *)
module Ids = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash x = x land max_int
end)

type t = {
  source : Relation.t; (* provenance, compared by physical identity *)
  rows : int array array;
  tuples : Tuple.t array;
  arity : int; (* -1 when empty *)
  cols : int list Ids.t option Atomic.t array;
  mx : Mutex.t;
}

let build rel =
  let n = Relation.cardinal rel in
  let tuples, rows =
    (* a packed relation already holds exactly these two arrays (the
       bulk loader interned while parsing); adopt them instead of
       re-interning — neither side ever mutates them *)
    match Relation.packed_rows rel with
    | Some (tuples, rows) -> (tuples, rows)
    | None ->
      let rows = Array.make n [||] in
      let tuples = Array.make n (Tuple.make []) in
      let i = ref 0 in
      Relation.iter
        (fun tu ->
          tuples.(!i) <- tu;
          rows.(!i) <- Intern.row tu;
          incr i)
        rel;
      (tuples, rows)
  in
  let arity = if n = 0 then -1 else Tuple.arity tuples.(0) in
  {
    source = rel;
    rows;
    tuples;
    arity;
    cols = Array.init (max arity 0) (fun _ -> Atomic.make None);
    mx = Mutex.create ();
  }

let source t = t.source
let cardinal t = Array.length t.rows
let arity t = t.arity
let rows t = t.rows
let row t i = t.rows.(i)
let tuple t i = t.tuples.(i)

let bucket_table t col =
  match Atomic.get t.cols.(col) with
  | Some h -> h
  | None ->
    Mutex.lock t.mx;
    let h =
      match Atomic.get t.cols.(col) with
      | Some h -> h (* another domain won the race *)
      | None ->
        let h = Ids.create (max 16 (Array.length t.rows)) in
        Array.iteri
          (fun i row ->
            let k = row.(col) in
            Ids.replace h k (i :: Option.value ~default:[] (Ids.find_opt h k)))
          t.rows;
        Atomic.set t.cols.(col) (Some h);
        h
    in
    Mutex.unlock t.mx;
    h

let bucket t col v =
  if col < 0 || col >= Array.length t.cols then []
  else
    Option.value ~default:[] (Ids.find_opt (bucket_table t col) v)

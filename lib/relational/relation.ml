module VSet = Set.Make (Value)

(* Column buckets are keyed by value id: ids are dense, so the id is
   its own hash — no polymorphic hashing or compare. *)
module Ids = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash x = x land max_int
end)

(* One representation: the tuples as a sorted, deduplicated array, in
   [Tuple.compare] order, and the same rows as interned id arrays, so
   the match kernel joins over the relation itself.  Nothing mutates
   either array once a relation holds it; every operation builds a new
   relation (or returns an argument unchanged).

   [arity] is [-1] exactly when the relation is empty.  [vals]
   memoises the constants ({!values}): a racing fill is benign, both
   domains compute the same immutable set and one write wins.  [cols]
   holds the column index, one bucket table per column mapping a value
   id to the indexes of the rows holding it, each built on the first
   probe of its column and published through [Atomic] once complete.
   The index goes with the relation: a join over an unchanged relation
   reuses it wherever the relation is bound. *)
type t = {
  arity : int;
  tuples : Tuple.t array;
  rows : int array array;
  mutable vals : VSet.t option;
  cols : int list Ids.t option Atomic.t array;
}

let empty = { arity = -1; tuples = [||]; rows = [||]; vals = None; cols = [||] }

(* [tuples] and [rows] aligned, strictly increasing, never mutated *)
let make ?vals tuples rows =
  if Array.length tuples = 0 then empty
  else
    let arity = Tuple.arity tuples.(0) in
    { arity; tuples; rows; vals; cols = Array.init arity (fun _ -> Atomic.make None) }

(* a tuple is its values' array *)
let add_values vs (t : Tuple.t) = Array.fold_left (fun vs v -> VSet.add v vs) vs t

let arity_mismatch got want =
  invalid_arg (Printf.sprintf "Relation: arity mismatch (%d vs %d)" got want)

(* Sort aligned tuples and rows, unsorted and possibly repeating, into
   a relation: one sort and one deduplicating pass.  The first tuple
   fixes the arity; a later one of another width is reported as [add]
   reports it. *)
let of_arrays tuples rows =
  let n = Array.length tuples in
  (if n > 0 then
     let a = Tuple.arity tuples.(0) in
     Array.iter (fun t -> if Tuple.arity t <> a then arity_mismatch (Tuple.arity t) a) tuples);
  let perm = Array.init n Fun.id in
  Array.stable_sort (fun i j -> Tuple.compare tuples.(i) tuples.(j)) perm;
  let keep = Array.make n 0 and m = ref 0 in
  Array.iteri
    (fun k i ->
      if k = 0 || Tuple.compare tuples.(perm.(k - 1)) tuples.(i) <> 0 then begin
        keep.(!m) <- i;
        incr m
      end)
    perm;
  make (Array.init !m (fun k -> tuples.(keep.(k)))) (Array.init !m (fun k -> rows.(keep.(k))))

let of_tuple_array ts = of_arrays ts (Array.map Intern.row ts)
let of_tuples ts = of_tuple_array (Array.of_list ts)
let of_int_rows rows = of_tuples (List.map Tuple.of_ints rows)
let of_str_rows rows = of_tuples (List.map Tuple.of_strs rows)

let of_rows rows =
  let rows = Array.of_list rows in
  of_arrays (Array.map (Array.map Intern.value) rows) rows

(* The least index in [lo, hi) whose tuple is [>= t], or [hi]. *)
let rec lower_bound r t lo hi =
  if lo >= hi then lo
  else
    let mid = (lo + hi) lsr 1 in
    if Tuple.compare r.tuples.(mid) t < 0 then lower_bound r t (mid + 1) hi
    else lower_bound r t lo mid

let cardinal r = Array.length r.tuples
let is_empty r = r.arity < 0
let arity r = if r.arity < 0 then None else Some r.arity

(* one compare per probe: the search's per-leaf membership test *)
let rec mem_in r t lo hi =
  lo < hi
  &&
  let mid = (lo + hi) lsr 1 in
  let c = Tuple.compare t r.tuples.(mid) in
  c = 0 || if c < 0 then mem_in r t lo mid else mem_in r t (mid + 1) hi

let mem t r = mem_in r t 0 (cardinal r)

(* The relation's distinct value ids, sorted once as values.  A
   relation with at least 1/64 as many cells as the intern table has
   entries marks its ids in a byte map the table's size; a smaller one
   sorts its own ids.  Either way the cost is bounded by the
   relation's own cells, never by the whole table. *)
let value_set r =
  match r.vals with
  | Some vs -> vs
  | None ->
    let cells = Array.fold_left (fun m row -> m + Array.length row) 0 r.rows in
    let ids =
      if 64 * cells >= Intern.size () then begin
        let seen = Bytes.make (Intern.size ()) '\000' in
        let ids = ref [] in
        Array.iter
          (Array.iter (fun id ->
               if Bytes.get seen id = '\000' then begin
                 Bytes.set seen id '\001';
                 ids := id :: !ids
               end))
          r.rows;
        !ids
      end
      else
        List.sort_uniq Int.compare
          (Array.fold_left (fun ids row -> Array.fold_right List.cons row ids) [] r.rows)
    in
    let vs = VSet.of_list (List.rev_map Intern.value ids) in
    r.vals <- Some vs;
    vs

let values r = VSet.elements (value_set r)

(* a copy of [a] with [x] inserted at [i] *)
let insert a i x =
  let n = Array.length a in
  let b = Array.make (n + 1) x in
  Array.blit a 0 b 0 i;
  Array.blit a i b (i + 1) (n - i);
  b

(* [add] extends a known memo; an unknown one stays unknown, so a
   relation grown tuple by tuple pays nothing for constants nobody
   asks for. *)
let add t r =
  if r.arity >= 0 && Tuple.arity t <> r.arity then arity_mismatch (Tuple.arity t) r.arity
  else
    let n = cardinal r in
    let i = lower_bound r t 0 n in
    if i < n && Tuple.equal r.tuples.(i) t then r
    else
      make
        ?vals:(Option.map (fun vs -> add_values vs t) r.vals)
        (insert r.tuples i t)
        (insert r.rows i (Intern.row t))

let fold f r acc = Array.fold_left (fun acc t -> f t acc) acc r.tuples
let iter f r = Array.iter f r.tuples
let exists f r = Array.exists f r.tuples
let for_all f r = Array.for_all f r.tuples
let elements r = Array.to_list r.tuples
let rows r = r.rows

(* The rows [keep] accepts, by index, in order; [r] itself when it
   accepts all, so the relation keeps its memo and its index. *)
let select keep r =
  let n = cardinal r in
  let kept = Array.make n 0 and m = ref 0 in
  for i = 0 to n - 1 do
    if keep i then begin
      kept.(!m) <- i;
      incr m
    end
  done;
  if !m = n then r
  else
    make
      (Array.init !m (fun k -> r.tuples.(kept.(k))))
      (Array.init !m (fun k -> r.rows.(kept.(k))))

let filter f r = select (fun i -> f r.tuples.(i)) r
let subset a b = cardinal a <= cardinal b && for_all (fun t -> mem t b) a
let diff a b = if is_empty b then a else select (fun i -> not (mem a.tuples.(i) b)) a

let inter a b =
  let small, large = if cardinal a <= cardinal b then (a, b) else (b, a) in
  select (fun i -> mem small.tuples.(i) large) small

(* Merge the smaller relation into the larger: a binary search per
   tuple of the smaller finds where it goes, then one exact-size copy
   of the larger's runs between them, so a write of [k] rows into [n]
   costs O(k log n) compares plus one O(n) copy.  When nothing is new
   the larger comes back unchanged, index and memo included.  The
   result knows its constants when either argument does (the other's
   are computed for the merge). *)
let union a b =
  if a.arity >= 0 && b.arity >= 0 && a.arity <> b.arity then
    invalid_arg "Relation.union: arity mismatch";
  if is_empty a then b
  else if is_empty b then a
  else begin
    let g, s = if cardinal a >= cardinal b then (a, b) else (b, a) in
    let ng = cardinal g and ns = cardinal s in
    (* where each tuple of [s] goes in [g]; -1 when [g] holds it *)
    let at = Array.make ns (-1) and fresh = ref 0 in
    let lo = ref 0 in
    for j = 0 to ns - 1 do
      let t = s.tuples.(j) in
      let p = lower_bound g t !lo ng in
      lo := p;
      if not (p < ng && Tuple.equal g.tuples.(p) t) then begin
        at.(j) <- p;
        incr fresh
      end
    done;
    if !fresh = 0 then g
    else begin
      let n = ng + !fresh in
      let ts = Array.make n [||] and rs = Array.make n [||] in
      (* [i]: next tuple of [g] to copy; [k]: next free slot *)
      let i = ref 0 and k = ref 0 in
      let copy upto =
        Array.blit g.tuples !i ts !k (upto - !i);
        Array.blit g.rows !i rs !k (upto - !i);
        k := !k + upto - !i;
        i := upto
      in
      Array.iteri
        (fun j p ->
          if p >= 0 then begin
            copy p;
            ts.(!k) <- s.tuples.(j);
            rs.(!k) <- s.rows.(j);
            incr k
          end)
        at;
      copy ng;
      let vals =
        match (a.vals, b.vals) with
        | None, None -> None
        | _ -> Some (VSet.union (value_set a) (value_set b))
      in
      make ?vals ts rs
    end
  end

let equal a b =
  a == b
  || cardinal a = cardinal b
     &&
     let rec go i = i < 0 || (Tuple.equal a.tuples.(i) b.tuples.(i) && go (i - 1)) in
     go (cardinal a - 1)

(* the sorted sequences compared lexicographically, as [Set.compare] *)
let compare a b =
  let na = cardinal a and nb = cardinal b in
  let rec go i =
    if i = na then if i = nb then 0 else -1
    else if i = nb then 1
    else
      let c = Tuple.compare a.tuples.(i) b.tuples.(i) in
      if c <> 0 then c else go (i + 1)
  in
  go 0

(* the identity projection is the relation itself: nothing to copy,
   sort or deduplicate (a containment constraint's RHS is often a
   whole master relation) *)
let project cols r =
  if r.arity >= 0 && List.equal Int.equal cols (List.init r.arity Fun.id) then r
  else
    let idx = Array.of_list cols in
    of_arrays
      (Array.map (Tuple.project cols) r.tuples)
      (Array.map (fun row -> Array.map (fun c -> row.(c)) idx) r.rows)

let map f r = of_tuple_array (Array.map f r.tuples)

(* ------------------------------------------------------------------ *)
(* The column index.  Buckets list a value's rows in decreasing row
   order.  Built under one process-wide lock, so each column of each
   relation is built once, and published with [Atomic.set], so a
   reader sees a complete table or none. *)

let m_builds =
  Ric_obs.Metrics.counter
    ~help:"column indexes built on relations (one per relation and probed column)"
    "ric_match_index_builds_total"

let build_mx = Mutex.create ()

let column r col =
  match Atomic.get r.cols.(col) with
  | Some h -> h
  | None ->
    Mutex.protect build_mx (fun () ->
        match Atomic.get r.cols.(col) with
        | Some h -> h (* another domain won the race *)
        | None ->
          let h = Ids.create (max 16 (cardinal r)) in
          Array.iteri
            (fun i row ->
              let k = row.(col) in
              Ids.replace h k (i :: Option.value ~default:[] (Ids.find_opt h k)))
            r.rows;
          Atomic.set r.cols.(col) (Some h);
          Ric_obs.Metrics.incr m_builds;
          h)

let bucket r col v =
  if col < 0 || col >= Array.length r.cols then []
  else Option.value ~default:[] (Ids.find_opt (column r col) v)

let indexed r = Array.exists (fun c -> Atomic.get c <> None) r.cols

let pp ppf r =
  Format.fprintf ppf "{%a}"
    (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf "; ") Tuple.pp)
    (elements r)

(* ------------------------------------------------------------------ *)
(* Columnar builder: the bulk-ingest path.  Cells arrive as interned
   ids into one flat, row-major, doubling int array — no per-tuple
   boxing, no per-tuple compare.  [finish] sorts a row permutation by
   the Value.compare rank of each id (so the row order matches
   [Tuple.compare] exactly), drops adjacent duplicates, and
   materialises the tuple view by sharing the interned value boxes. *)
module Builder = struct
  type builder = {
    mutable b_arity : int; (* -1 until the first row is closed *)
    mutable b_cells : int array; (* row-major *)
    mutable b_len : int; (* cells in use *)
    mutable b_row_start : int; (* start of the open row *)
    mutable b_rows : int; (* closed rows *)
  }

  let create () =
    { b_arity = -1; b_cells = Array.make 1024 0; b_len = 0; b_row_start = 0; b_rows = 0 }

  let add_cell b id =
    (if b.b_len = Array.length b.b_cells then begin
       let bigger = Array.make (2 * b.b_len) 0 in
       Array.blit b.b_cells 0 bigger 0 b.b_len;
       b.b_cells <- bigger
     end);
    b.b_cells.(b.b_len) <- id;
    b.b_len <- b.b_len + 1

  let end_row b =
    let width = b.b_len - b.b_row_start in
    if b.b_arity = -1 then b.b_arity <- width
    else if width <> b.b_arity then begin
      (* leave the builder usable: discard the offending row *)
      b.b_len <- b.b_row_start;
      invalid_arg
        (Printf.sprintf "Relation: arity mismatch (%d vs %d)" width b.b_arity)
    end;
    b.b_row_start <- b.b_len;
    b.b_rows <- b.b_rows + 1

  let rows b = b.b_rows

  (* Rank of every intern id under [Value.compare], so rank-lexico-
     graphic row order coincides with [Tuple.compare] order (rows in
     one builder all share an arity, so the length tiebreak never
     fires).  Memoised on the intern-table size: consecutive blocks of
     one load usually intern nothing new between finishes.  The memo
     ref holds an immutable pair, so a racing reader at worst
     recomputes. *)
  let ranks_memo : (int * int array) option ref = ref None

  let value_ranks () =
    let n = Intern.size () in
    match !ranks_memo with
    | Some (m, rank) when m = n -> rank
    | _ ->
      let by_value = Array.init n (fun i -> i) in
      Array.sort
        (fun i j -> Value.compare (Intern.value i) (Intern.value j))
        by_value;
      let rank = Array.make n 0 in
      Array.iteri (fun pos id -> rank.(id) <- pos) by_value;
      ranks_memo := Some (n, rank);
      rank

  (* LSD radix sort of [perm] by [keys.(perm.(i))], 16-bit digits:
     linear passes instead of n log n compare calls, which is what
     keeps a million-row [finish] off the load-path flame graph. *)
  let radix_sort_perm keys perm total_bits =
    let n = Array.length perm in
    let digit_bits = 16 in
    let radix = 1 lsl digit_bits in
    let mask = radix - 1 in
    let tmp = Array.make n 0 in
    let counts = Array.make radix 0 in
    let src = ref perm and dst = ref tmp in
    let shift = ref 0 in
    while !shift < total_bits do
      Array.fill counts 0 radix 0;
      let s = !src and d = !dst in
      for i = 0 to n - 1 do
        let dg = (Array.unsafe_get keys (Array.unsafe_get s i) lsr !shift) land mask in
        Array.unsafe_set counts dg (Array.unsafe_get counts dg + 1)
      done;
      let acc = ref 0 in
      for dg = 0 to mask do
        let c = counts.(dg) in
        counts.(dg) <- !acc;
        acc := !acc + c
      done;
      for i = 0 to n - 1 do
        let v = Array.unsafe_get s i in
        let dg = (Array.unsafe_get keys v lsr !shift) land mask in
        Array.unsafe_set d (Array.unsafe_get counts dg) v;
        Array.unsafe_set counts dg (Array.unsafe_get counts dg + 1)
      done;
      src := d;
      dst := s;
      shift := !shift + digit_bits
    done;
    !src

  let finish b =
    if b.b_rows = 0 then empty
    else begin
      let ar = b.b_arity and n = b.b_rows in
      let cells = b.b_cells in
      let rank = value_ranks () in
      let nvals = Array.length rank in
      let key_bits =
        let rec go bts = if 1 lsl bts >= nvals then bts else go (bts + 1) in
        go 1
      in
      let cmp_rows i j =
        let oi = i * ar and oj = j * ar in
        let rec go k =
          if k = ar then 0
          else
            let c = Int.compare rank.(cells.(oi + k)) rank.(cells.(oj + k)) in
            if c <> 0 then c else go (k + 1)
        in
        go 0
      in
      (* [perm] ends up rank-lexicographically sorted; [same] tells
         whether two already-sorted rows are duplicates *)
      let perm, same =
        if ar * key_bits <= 62 then begin
          (* all ranks of a row fit one non-negative int: rank-lex row
             order becomes single-int order, sorted without compares
             and deduplicated by equality *)
          let keys = Array.make n 0 in
          for i = 0 to n - 1 do
            let o = i * ar in
            let k = ref 0 in
            for c = 0 to ar - 1 do
              k := (!k lsl key_bits) lor Array.unsafe_get rank (Array.unsafe_get cells (o + c))
            done;
            Array.unsafe_set keys i !k
          done;
          let perm = Array.init n (fun i -> i) in
          let perm =
            if n < 4096 then begin
              (* counting passes dominate tiny blocks; compare instead *)
              Array.sort (fun i j -> Int.compare keys.(i) keys.(j)) perm;
              perm
            end
            else radix_sort_perm keys perm (ar * key_bits)
          in
          (perm, fun i j -> keys.(i) = keys.(j))
        end
        else begin
          let perm = Array.init n (fun i -> i) in
          Array.sort cmp_rows perm;
          (perm, fun i j -> cmp_rows i j = 0)
        end
      in
      (* count distinct rows, then materialise both views in order *)
      let distinct = ref 1 in
      for i = 1 to n - 1 do
        if not (same perm.(i - 1) perm.(i)) then incr distinct
      done;
      let m = !distinct in
      let p_rows = Array.make m [||] in
      let p_tuples = Array.make m [||] in
      let out = ref 0 in
      for i = 0 to n - 1 do
        if i = 0 || not (same perm.(i - 1) perm.(i)) then begin
          let o = perm.(i) * ar in
          let row = Array.init ar (fun k -> cells.(o + k)) in
          p_rows.(!out) <- row;
          p_tuples.(!out) <- Array.map Intern.value row;
          incr out
        end
      done;
      make p_tuples p_rows
    end
end

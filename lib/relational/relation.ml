module TSet = Set.Make (struct
  type t = Tuple.t

  let compare = Tuple.compare
end)

module VSet = Set.Make (Value)

(* Two backings share one interface.  [Set] is the historical balanced
   tree, still what every incremental operation produces.  [Packed] is
   the bulk-load representation: the tuples as a sorted, deduplicated
   array plus the same rows as interned int arrays, built once by
   {!Builder.finish} without ever touching a [TSet].  Operations that
   genuinely need set algebra force a [TSet] view lazily and memoise
   it; the streaming scenario loader and [Rix.build] never do.

   The memoised [p_set] write is a benign race under parallel domains:
   both writers compute the same set from the same immutable arrays,
   and a torn read is impossible for an immediate-or-pointer field. *)
type packed = {
  p_tuples : Tuple.t array; (* strictly increasing Tuple.compare order *)
  p_rows : int array array; (* Intern ids, same order as p_tuples *)
  mutable p_set : TSet.t option;
}

type backing =
  | Set of TSet.t
  | Packed of packed

(* The arity and cardinality ride along with the backing: the arity
   probe used to [choose] a witness tuple on every insert, and
   [Set.cardinal] is linear — both showed up in the match engine's
   per-node atom scoring.  [arity] is [-1] exactly when the relation
   is empty.

   [vals] memoises the relation's constants ({!values}): filled on
   first use, and [add] extends a known one by the new tuple's values.
   As for [p_set], a racing fill is benign: both domains compute the
   same immutable set and one write wins. *)
type t = {
  arity : int;
  card : int;
  backing : backing;
  mutable vals : VSet.t option;
}

let make ?vals arity card backing = { arity; card; backing; vals }

(* a tuple is its values' array *)
let add_values vs (t : Tuple.t) = Array.fold_left (fun vs v -> VSet.add v vs) vs t

let empty = make (-1) 0 (Set TSet.empty)

let force r =
  match r.backing with
  | Set s -> s
  | Packed p -> (
    match p.p_set with
    | Some s -> s
    | None ->
      let s =
        Array.fold_left (fun acc t -> TSet.add t acc) TSet.empty p.p_tuples
      in
      p.p_set <- Some s;
      s)

let of_set set =
  if TSet.is_empty set then empty
  else make (Tuple.arity (TSet.choose set)) (TSet.cardinal set) (Set set)

(* Binary search in the sorted tuple array. *)
let packed_mem p t =
  let lo = ref 0 and hi = ref (Array.length p.p_tuples) in
  let found = ref false in
  while (not !found) && !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    let c = Tuple.compare t p.p_tuples.(mid) in
    if c = 0 then found := true
    else if c < 0 then hi := mid
    else lo := mid + 1
  done;
  !found

let mem t r =
  match r.backing with
  | Set s -> TSet.mem t s
  | Packed p -> packed_mem p t

(* A packed relation marks the intern ids its rows use and sorts the
   distinct values once; a tree-backed one folds its tuples' values
   into the set. *)
let value_set r =
  match r.vals with
  | Some vs -> vs
  | None ->
    let vs =
      match r.backing with
      | Packed p ->
        let seen = Bytes.make (Intern.size ()) '\000' in
        let ids = ref [] in
        Array.iter
          (Array.iter (fun id ->
               if Bytes.get seen id = '\000' then begin
                 Bytes.set seen id '\001';
                 ids := id :: !ids
               end))
          p.p_rows;
        VSet.of_list (List.rev_map Intern.value !ids)
      | Set s -> TSet.fold (fun t vs -> add_values vs t) s VSet.empty
    in
    r.vals <- Some vs;
    vs

(* [add] extends a known memo.  A packed relation's is computed first
   (one pass over its interned rows, far cheaper than the tree the add
   builds from them), so the first write to a loaded relation keeps
   it; a relation grown from [empty] starts without one, so building
   one tuple by tuple pays nothing for constants nobody asks for. *)
let add t r =
  if r.card = 0 then make (Tuple.arity t) 1 (Set (TSet.singleton t))
  else if Tuple.arity t <> r.arity then
    invalid_arg
      (Printf.sprintf "Relation: arity mismatch (%d vs %d)" (Tuple.arity t)
         r.arity)
  else if mem t r then r
  else
    let set = TSet.add t (force r) in
    let vals =
      match (r.vals, r.backing) with
      | Some vs, _ -> Some (add_values vs t)
      | None, Packed _ -> Some (add_values (value_set r) t)
      | None, Set _ -> None
    in
    make ?vals r.arity (r.card + 1) (Set set)

let of_tuples ts = List.fold_left (fun acc t -> add t acc) empty ts
let of_int_rows rows = of_tuples (List.map Tuple.of_ints rows)
let of_str_rows rows = of_tuples (List.map Tuple.of_strs rows)

let cardinal r = r.card
let is_empty r = r.card = 0
let subset a b = a.card <= b.card && TSet.subset (force a) (force b)
let arity r = if r.card = 0 then None else Some r.arity

let union a b =
  if a.card > 0 && b.card > 0 && a.arity <> b.arity then
    invalid_arg "Relation.union: arity mismatch";
  if a.card = 0 then b
  else if b.card = 0 then a
  else
    let sa = force a and sb = force b in
    let set = TSet.union sa sb in
    if set == sa then a
    else if set == sb then b
    else
      let vals =
        match (a.vals, b.vals) with
        | Some va, Some vb -> Some (VSet.union va vb)
        | _ -> None
      in
      make ?vals a.arity (TSet.cardinal set) (Set set)

let diff a b = of_set (TSet.diff (force a) (force b))
let inter a b = of_set (TSet.inter (force a) (force b))

let equal a b =
  a == b
  || a.card = b.card
     &&
     match (a.backing, b.backing) with
     | Packed p, Packed q ->
       (* both sorted and deduplicated: positional comparison *)
       let n = Array.length p.p_tuples in
       let rec go i =
         i = n || (Tuple.equal p.p_tuples.(i) q.p_tuples.(i) && go (i + 1))
       in
       go 0
     | _ -> TSet.equal (force a) (force b)

let compare a b = TSet.compare (force a) (force b)

let fold f r acc =
  match r.backing with
  | Set s -> TSet.fold f s acc
  | Packed p -> Array.fold_left (fun acc t -> f t acc) acc p.p_tuples

let iter f r =
  match r.backing with
  | Set s -> TSet.iter f s
  | Packed p -> Array.iter f p.p_tuples

let exists f r =
  match r.backing with
  | Set s -> TSet.exists f s
  | Packed p -> Array.exists f p.p_tuples

let for_all f r =
  match r.backing with
  | Set s -> TSet.for_all f s
  | Packed p -> Array.for_all f p.p_tuples

let filter f r = of_set (TSet.filter f (force r))

let elements r =
  match r.backing with
  | Set s -> TSet.elements s
  | Packed p -> Array.to_list p.p_tuples

let project cols r =
  of_set
    (fold (fun t acc -> TSet.add (Tuple.project cols t) acc) r TSet.empty)

let map f r = of_set (fold (fun t acc -> TSet.add (f t) acc) r TSet.empty)

let values r = VSet.elements (value_set r)

let packed_rows r =
  match r.backing with
  | Packed p -> Some (p.p_tuples, p.p_rows)
  | Set _ -> None

let pp ppf r =
  Format.fprintf ppf "{%a}"
    (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf "; ") Tuple.pp)
    (elements r)

(* ------------------------------------------------------------------ *)
(* Columnar builder: the bulk-ingest path.  Cells arrive as interned
   ids into one flat, row-major, doubling int array — no per-tuple
   boxing, no tree insertion.  [finish] sorts a row permutation by the
   Value.compare rank of each id (so the packed order matches
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
      make ar m (Packed { p_tuples; p_rows; p_set = None })
    end
end

(* Aggregate keyed by (level index, atom name, candidate source): a
   UCQ decide runs one search per disjunct, and disjuncts may
   instantiate different atoms at the same depth, or draw one atom's
   candidates differently — keeping both in the key keeps the rows
   honest instead of summing unrelated levels. *)

type level_key = { k_index : int; k_name : string; k_source : string }

type level_cell = { mutable c_steps : int; mutable c_prunes : int }

type t = {
  levels : (level_key, level_cell) Hashtbl.t;
  constraints : (string, int ref) Hashtbl.t;
  counters : (string, int ref) Hashtbl.t;
  mutable notes : (string * string) list;
}

let create () =
  {
    levels = Hashtbl.create 16;
    constraints = Hashtbl.create 8;
    counters = Hashtbl.create 8;
    notes = [];
  }

type search = {
  owner : t;
  names : string array;
  sources : string array;
  steps : int array;
  prunes : int array;
  (* per-constraint prune counts stay a small assoc list: a search
     rarely sees more than a handful of distinct pruning constraints *)
  mutable by_cc : (string * int ref) list;
}

let start_search owner ~names ~sources =
  let n = Array.length names in
  { owner; names; sources; steps = Array.make n 0; prunes = Array.make n 0; by_cc = [] }

let step sr i = sr.steps.(i) <- sr.steps.(i) + 1

let prune sr i cc =
  sr.prunes.(i) <- sr.prunes.(i) + 1;
  match cc with
  | None -> ()
  | Some name -> (
    match List.assoc_opt name sr.by_cc with
    | Some r -> incr r
    | None -> sr.by_cc <- (name, ref 1) :: sr.by_cc)

let add_counter tbl name n =
  match Hashtbl.find_opt tbl name with
  | Some r -> r := !r + n
  | None -> Hashtbl.replace tbl name (ref n)

let finish_search t sr =
  Array.iteri
    (fun i name ->
      if sr.steps.(i) <> 0 || sr.prunes.(i) <> 0 then begin
        let key = { k_index = i; k_name = name; k_source = sr.sources.(i) } in
        let cell =
          match Hashtbl.find_opt t.levels key with
          | Some c -> c
          | None ->
            let c = { c_steps = 0; c_prunes = 0 } in
            Hashtbl.replace t.levels key c;
            c
        in
        cell.c_steps <- cell.c_steps + sr.steps.(i);
        cell.c_prunes <- cell.c_prunes + sr.prunes.(i)
      end)
    sr.names;
  List.iter (fun (name, r) -> add_counter t.constraints name !r) sr.by_cc

let bump t name n = add_counter t.counters name n

let note t k v = t.notes <- (k, v) :: List.remove_assoc k t.notes
let find_note t k = List.assoc_opt k t.notes

type level_row = {
  lv_index : int;
  lv_name : string;
  lv_source : string;
  lv_steps : int;
  lv_prunes : int;
}

type snapshot = {
  levels : level_row list;
  constraints : (string * int) list;
  counters : (string * int) list;
  notes : (string * string) list;
}

let sorted_counts tbl =
  Hashtbl.fold (fun k r acc -> (k, !r) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let snapshot (t : t) =
  let levels =
    Hashtbl.fold
      (fun k c acc ->
        { lv_index = k.k_index; lv_name = k.k_name; lv_source = k.k_source;
          lv_steps = c.c_steps; lv_prunes = c.c_prunes }
        :: acc)
      t.levels []
    |> List.sort (fun a b ->
           compare
             (a.lv_index, a.lv_name, a.lv_source)
             (b.lv_index, b.lv_name, b.lv_source))
  in
  {
    levels;
    constraints = sorted_counts t.constraints;
    counters = sorted_counts t.counters;
    notes = List.sort (fun (a, _) (b, _) -> String.compare a b) t.notes;
  }

let counts_as_steps name =
  let suffix = "_steps" in
  let n = String.length name and m = String.length "_steps" in
  n >= m && String.sub name (n - m) m = suffix

let attributed_steps snap =
  List.fold_left (fun acc row -> acc + row.lv_steps) 0 snap.levels
  + List.fold_left
      (fun acc (name, v) -> if counts_as_steps name then acc + v else acc)
      0 snap.counters

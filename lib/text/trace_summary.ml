type span = {
  id : int;
  parent : int;
  name : string;
  start_us : int;
  dur_us : int;
  attrs : (string * Json.t) list;
}

type load_result = {
  spans : span list;
  malformed : int;
}

let int_field fields k =
  match List.assoc_opt k fields with Some (Json.Int n) -> Some n | _ -> None

let span_of_json = function
  | Json.Obj fields ->
    (match
       ( int_field fields "id",
         int_field fields "start_us",
         int_field fields "dur_us",
         List.assoc_opt "name" fields )
     with
     | Some id, Some start_us, Some dur_us, Some (Json.Str name) ->
       let attrs =
         match List.assoc_opt "attrs" fields with
         | Some (Json.Obj a) -> a
         | _ -> []
       in
       Some
         {
           id;
           parent = Option.value ~default:0 (int_field fields "parent");
           name;
           start_us;
           dur_us;
           attrs;
         }
     | _ -> None)
  | _ -> None

let load path =
  let ic = open_in path in
  let spans = ref [] and malformed = ref 0 in
  (try
     let rec go () =
       match input_line ic with
       | exception End_of_file -> ()
       | line ->
         (if String.trim line <> "" then
            match Json.of_string_result line with
            | Error _ -> incr malformed
            | Ok json ->
              (match span_of_json json with
               | Some sp -> spans := sp :: !spans
               | None -> incr malformed));
         go ()
     in
     go ()
   with e ->
     close_in_noerr ic;
     raise e);
  close_in_noerr ic;
  { spans = List.rev !spans; malformed = !malformed }

(* Correlation filter: the spans stamped with a req_id plus their
   whole subtrees.  Only the outer spans carry the attribute (the
   server stamps "server.op", the deciders their roots), so keeping a
   kept span's descendants is what makes the filter show the full
   story of one request. *)
let filter_req_id rid spans =
  let module IS = Set.Make (Int) in
  let stamped sp =
    match List.assoc_opt "req_id" sp.attrs with
    | Some (Json.Str s) -> s = rid
    | _ -> false
  in
  let keep =
    ref
      (List.filter stamped spans
      |> List.map (fun sp -> sp.id)
      |> IS.of_list)
  in
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun sp ->
        if
          (not (IS.mem sp.id !keep))
          && sp.parent <> sp.id
          && IS.mem sp.parent !keep
        then begin
          keep := IS.add sp.id !keep;
          changed := true
        end)
      spans
  done;
  List.filter (fun sp -> IS.mem sp.id !keep) spans

type phase_row = {
  ph_name : string;
  ph_count : int;
  ph_total_us : int;
  ph_max_us : int;
  ph_steps : int;
}

type summary = {
  total_spans : int;
  roots : int;
  wall_us : int;
  slowest : span list;
  phases : phase_row list;
}

let steps_of sp = Option.value ~default:0 (int_field sp.attrs "steps")

let summarize ?(top = 10) spans =
  let by_dur =
    List.stable_sort (fun a b -> compare b.dur_us a.dur_us) spans
  in
  let slowest = List.filteri (fun i _ -> i < top) by_dur in
  let phase_tbl = Hashtbl.create 16 in
  List.iter
    (fun sp ->
      let row =
        match Hashtbl.find_opt phase_tbl sp.name with
        | Some r -> r
        | None ->
          { ph_name = sp.name; ph_count = 0; ph_total_us = 0; ph_max_us = 0; ph_steps = 0 }
      in
      Hashtbl.replace phase_tbl sp.name
        {
          row with
          ph_count = row.ph_count + 1;
          ph_total_us = row.ph_total_us + sp.dur_us;
          ph_max_us = max row.ph_max_us sp.dur_us;
          ph_steps = row.ph_steps + steps_of sp;
        })
    spans;
  let phases =
    Hashtbl.fold (fun _ r acc -> r :: acc) phase_tbl []
    |> List.sort (fun a b -> compare b.ph_total_us a.ph_total_us)
  in
  let ids = List.map (fun sp -> sp.id) spans in
  let roots =
    List.length
      (List.filter (fun sp -> sp.parent = 0 || not (List.mem sp.parent ids)) spans)
  in
  let wall_us =
    match spans with
    | [] -> 0
    | sp0 :: _ ->
      let lo =
        List.fold_left (fun a sp -> min a sp.start_us) sp0.start_us spans
      in
      let hi =
        List.fold_left
          (fun a sp -> max a (sp.start_us + sp.dur_us))
          (sp0.start_us + sp0.dur_us) spans
      in
      hi - lo
  in
  { total_spans = List.length spans; roots; wall_us; slowest; phases }

let children spans sp =
  List.filter (fun c -> c.parent = sp.id && c.id <> sp.id) spans
  |> List.sort (fun a b -> compare a.start_us b.start_us)

let ms us = float_of_int us /. 1000.

let rate_per_s ~steps ~us =
  if us <= 0 then 0. else float_of_int steps *. 1e6 /. float_of_int us

let pp_attrs ppf attrs =
  let interesting =
    List.filter_map
      (fun (k, v) ->
        match (k, v) with
        | "steps", _ -> None (* printed in its own column *)
        | _, Json.Str s -> Some (Printf.sprintf "%s=%s" k s)
        | _, Json.Int n -> Some (Printf.sprintf "%s=%d" k n)
        | _, Json.Bool b -> Some (Printf.sprintf "%s=%b" k b)
        | _ -> None)
      attrs
  in
  if interesting <> [] then
    Format.fprintf ppf " [%s]" (String.concat " " interesting)

let rec pp_tree ppf spans ~depth ~seen sp =
  if depth < 16 && not (List.mem sp.id seen) then begin
    Format.fprintf ppf "%s%s %.3fms" (String.make (2 * depth) ' ') sp.name
      (ms sp.dur_us);
    (match steps_of sp with 0 -> () | n -> Format.fprintf ppf " steps=%d" n);
    pp_attrs ppf sp.attrs;
    Format.pp_print_newline ppf ();
    List.iter
      (pp_tree ppf spans ~depth:(depth + 1) ~seen:(sp.id :: seen))
      (children spans sp)
  end

let pp ppf ~malformed spans summary =
  Format.fprintf ppf "spans: %d  roots: %d  wall: %.3fms" summary.total_spans
    summary.roots (ms summary.wall_us);
  if malformed > 0 then Format.fprintf ppf "  (malformed lines: %d)" malformed;
  Format.pp_print_newline ppf ();
  if summary.slowest <> [] then begin
    Format.fprintf ppf "@.slowest spans@.";
    List.iter
      (fun sp ->
        Format.fprintf ppf "  %10.3fms  %-22s" (ms sp.dur_us) sp.name;
        (match steps_of sp with 0 -> () | n -> Format.fprintf ppf " steps=%d" n);
        pp_attrs ppf sp.attrs;
        Format.pp_print_newline ppf ())
      summary.slowest
  end;
  if summary.phases <> [] then begin
    Format.fprintf ppf "@.per-phase step rates@.";
    Format.fprintf ppf "  %-22s %7s %12s %12s %12s@." "phase" "count" "total_ms"
      "steps" "steps/s";
    List.iter
      (fun r ->
        Format.fprintf ppf "  %-22s %7d %12.3f %12d %12.0f@." r.ph_name r.ph_count
          (ms r.ph_total_us) r.ph_steps
          (rate_per_s ~steps:r.ph_steps ~us:r.ph_total_us))
      summary.phases
  end;
  (* the slowest root's tree: how one decide call spent its time *)
  let ids = List.map (fun sp -> sp.id) spans in
  let root_spans =
    List.filter (fun sp -> sp.parent = 0 || not (List.mem sp.parent ids)) spans
    |> List.sort (fun a b -> compare b.dur_us a.dur_us)
  in
  match root_spans with
  | [] -> ()
  | root :: _ ->
    Format.fprintf ppf "@.slowest call tree@.";
    pp_tree ppf spans ~depth:1 ~seen:[] root

open Ric_query

let same_target a b =
  match a, b with
  | Projection.Empty, Projection.Empty -> true
  | Projection.Proj { mrel = r1; cols = c1 }, Projection.Proj { mrel = r2; cols = c2 } ->
    String.equal r1 r2 && c1 = c2
  | _ -> false

(* the analysable fragment: an inequality-free CQ left-hand side *)
let plain_cq (cc : Containment.t) =
  match cc.Containment.lhs with
  | Lang.Q_cq q when q.Cq.neqs = [] -> Some q
  | _ -> None

(* Chandra–Merlin [q ⊑ q']; a pair the test rejects (an unsafe query,
   say) is conservatively "not contained" *)
let contained sch q q' = try Cq.contained_in sch q q' with Invalid_argument _ -> false

let normalize sch ccs =
  let indexed = List.mapi (fun j c -> (j, c)) ccs in
  let redundant i cc =
    match cc.Containment.lhs with
    | Lang.Q_cq q when not (Cq.satisfiable sch q) -> true
    | _ ->
      (match plain_cq cc with
       | None -> false
       | Some q ->
         List.exists
           (fun (j, other) ->
             i <> j
             &&
             match plain_cq other with
             | Some q'
               when same_target cc.Containment.rhs other.Containment.rhs
                    && contained sch q q' ->
               (* keep the subsuming one; on mutual containment
                  (equivalence) keep the earlier *)
               not (j > i && contained sch q' q)
             | _ -> false)
           indexed)
  in
  List.filteri (fun i cc -> not (redundant i cc)) ccs

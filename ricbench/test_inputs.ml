(* The benchmark's inputs are a function of the seed alone: one seed
   gives byte-identical scenario files and request bytes, and another
   seed gives other ladder and triple instances. *)

let requests = 500

let bytes (t : Inputs.t) =
  List.map (fun (path, text) -> path ^ "\n" ^ text) t.Inputs.files
  @ Inputs.setup_bytes t
  @ List.init requests (Inputs.measured_bytes t)

let same_seed w () =
  Alcotest.(check (list string)) "byte-identical" (bytes (Inputs.make w 7)) (bytes (Inputs.make w 7))

let other_seed w () =
  let a = Inputs.make w 7 and b = Inputs.make w 8 in
  let texts (t : Inputs.t) = List.map snd t.Inputs.files in
  Alcotest.(check bool) "generated scenarios differ" true (texts a <> texts b);
  Alcotest.(check bool) "request sequences differ" true (bytes a <> bytes b)

let () =
  Alcotest.run "ricbench inputs"
    [
      ( "seeded",
        List.concat_map
          (fun (name, w) ->
            [
              Alcotest.test_case (name ^ " same seed") `Quick (same_seed w);
              Alcotest.test_case (name ^ " other seed") `Quick (other_seed w);
            ])
          Inputs.workloads );
    ]

(* Differential oracle for the compiled local-task CSPs: for every hard
   candidate τ of the benchmark catalogue's closure tasks and of random
   tasks, [Solvability.local_task_solvable] (built from the shared
   Δ(σ) frame) must return the verdict and witness of the reference
   construction below — [Solvability.decide] on the explicit local task
   of Definition 1 — at one and at four pool jobs. *)

let reference ~one_round task ~sigma ~tau =
  Solvability.decide ~inputs:(Simplex.faces tau)
    ~protocol:(fun t -> Complex.of_facets (one_round t))
    ~delta:(Task.delta (Local_task.make task ~sigma ~tau))
    ()

let same_verdict a b =
  match (a, b) with
  | Solvability.Solvable f, Solvability.Solvable g -> Simplicial_map.equal f g
  | Solvability.Unsolvable, Solvability.Unsolvable
  | Solvability.Undecided, Solvability.Undecided ->
      true
  | _ -> false

let show = function
  | Solvability.Solvable _ -> "solvable"
  | Solvability.Unsolvable -> "unsolvable"
  | Solvability.Undecided -> "undecided"

let hard_candidates task =
  List.concat_map
    (fun sigma ->
      let zero = Task.delta task sigma in
      List.filter_map
        (fun tau -> if Complex.mem tau zero then None else Some (sigma, tau))
        (Task.chromatic_output_sets task sigma))
    (Task.input_simplices task)

(* [make] builds a fresh task (fresh Δ and frame memos), so at four
   jobs the frames are compiled concurrently by the pool workers. *)
let check_all ~label ~op make =
  let one_round = Round_op.facets op in
  let expected =
    let task = make () in
    List.map
      (fun (sigma, tau) -> (sigma, tau, reference ~one_round task ~sigma ~tau))
      (hard_candidates task)
  in
  List.iter
    (fun jobs ->
      Pool.set_jobs (Some jobs);
      Fun.protect ~finally:(fun () -> Pool.set_jobs None) @@ fun () ->
      let task = make () in
      let got =
        Pool.map
          (fun (sigma, tau, _) ->
            Solvability.local_task_solvable ~one_round task ~sigma ~tau)
          expected
      in
      List.iter2
        (fun (sigma, tau, want) got ->
          if not (same_verdict want got) then
            Alcotest.failf "%s under %s, jobs=%d, σ=%s τ=%s: %s, reference %s"
              label (Round_op.name op) jobs (Simplex.to_string sigma)
              (Simplex.to_string tau) (show got) (show want))
        expected got)
    [ 1; 4 ]

let algebra s =
  match Algebra.parse s with
  | Ok t -> Round_op.algebra t
  | Error msg -> failwith msg

let catalogue_tasks =
  let aa ~n ~m a b () = Approx_agreement.task ~n ~m ~eps:(Frac.make a b) in
  [
    ("consensus n=2", fun () -> Consensus.binary ~n:2);
    ("consensus n=3", fun () -> Consensus.binary ~n:3);
    ( "relaxed-consensus",
      fun () -> Consensus.relaxed ~n:2 ~values:[ Value.Int 0; Value.Int 1 ] );
    ( "2set",
      fun () ->
        Set_agreement.task ~n:2 ~k:2 ~values:[ Value.Int 0; Value.Int 1; Value.Int 2 ]
    );
    ("aa m=3 1/3", aa ~n:2 ~m:3 1 3);
    ("aa m=3 1", aa ~n:2 ~m:3 1 1);
    ("aa m=4 1/4", aa ~n:2 ~m:4 1 4);
    ("aa m=6 1/6", aa ~n:2 ~m:6 1 6);
    ("aa m=6 1/2", aa ~n:2 ~m:6 1 2);
    ("aa m=9 1/9", aa ~n:2 ~m:9 1 9);
    ("aa m=9 1/3", aa ~n:2 ~m:9 1 3);
    ("aa n=3 m=2", aa ~n:3 ~m:2 1 2);
    ( "liberal-aa",
      fun () -> Approx_agreement.liberal ~n:2 ~m:4 ~eps:(Frac.make 1 4) );
  ]

let catalogue_ops () =
  [
    Round_op.plain Model.Immediate;
    Round_op.plain Model.Snapshot;
    Round_op.plain Model.Collect;
    algebra "(solo 2)";
    algebra "(inter iis snapshot)";
  ]

let test_catalogue () =
  List.iter
    (fun op ->
      List.iter (fun (label, make) -> check_all ~label ~op make) catalogue_tasks)
    (catalogue_ops ())

let test_random_tasks () =
  List.iter
    (fun op ->
      for seed = 0 to 29 do
        check_all
          ~label:(Printf.sprintf "random task %d" seed)
          ~op
          (fun () -> Test_random_tasks.random_task seed)
      done)
    [ Round_op.plain Model.Immediate; Round_op.test_and_set ]

let test_single_vertex () =
  (* A solo input: τ is one vertex, pinned to itself. *)
  let task = Approx_agreement.task ~n:2 ~m:3 ~eps:(Frac.make 1 3) in
  let one_round = Round_op.facets (Round_op.plain Model.Immediate) in
  let sigma = Simplex.of_list [ (1, Value.frac 0 1) ] in
  List.iter
    (fun tau ->
      let want = reference ~one_round task ~sigma ~tau in
      let got = Solvability.local_task_solvable ~one_round task ~sigma ~tau in
      Alcotest.(check bool)
        (Printf.sprintf "τ = %s" (Simplex.to_string tau))
        true
        (Solvability.is_solvable got && same_verdict want got))
    (Task.chromatic_output_sets task sigma)

let test_invalid_tau () =
  let task = Consensus.binary ~n:2 in
  let one_round = Round_op.facets (Round_op.plain Model.Immediate) in
  let sigma = Simplex.of_list [ (1, Value.Int 0); (2, Value.Int 0) ] in
  let raises tau =
    match Solvability.local_task_solvable ~one_round task ~sigma ~tau with
    | _ -> false
    | exception Invalid_argument _ -> true
  in
  Alcotest.(check bool) "value outside V(Δ(σ))" true
    (raises (Simplex.of_list [ (1, Value.Int 1); (2, Value.Int 0) ]));
  Alcotest.(check bool) "ID(τ) ≠ ID(σ)" true
    (raises (Simplex.of_list [ (1, Value.Int 0) ]))

let test_frame_rows () =
  (* The frame's rows are Δ(σ)'s simplices with exactly the requested
     colors, in Simplex.compare order. *)
  let task = Approx_agreement.task ~n:3 ~m:2 ~eps:(Frac.make 1 2) in
  let sigma =
    Simplex.of_list [ (1, Value.frac 0 1); (2, Value.frac 1 2); (3, Value.frac 1 1) ]
  in
  let d = Task.delta task sigma in
  let frame = Task.frame task sigma in
  Alcotest.(check bool) "memoized" true (frame == Task.frame task sigma);
  List.iter
    (fun ids ->
      let as_rows =
        List.map
          (fun s ->
            List.map
              (fun v -> Option.get (Delta_frame.index frame v))
              (Simplex.vertices s))
          (Complex.simplices_with_ids ids d)
      in
      Alcotest.(check (list (list int)))
        (Printf.sprintf "rows %s" (String.concat "," (List.map string_of_int ids)))
        as_rows
        (Array.to_list (Array.map Array.to_list (Delta_frame.rows frame ids))))
    [ [ 1 ]; [ 1; 2 ]; [ 1; 3 ]; [ 2; 3 ]; [ 1; 2; 3 ] ];
  Alcotest.(check int) "foreign color" 0 (Array.length (Delta_frame.rows frame [ 1; 4 ]))

let suite =
  ( "delta_frame",
    [
      Alcotest.test_case "frame rows match Δ(σ)" `Quick test_frame_rows;
      Alcotest.test_case "single-vertex τ" `Quick test_single_vertex;
      Alcotest.test_case "invalid τ raises" `Quick test_invalid_tau;
      Alcotest.test_case "oracle: catalogue closure tasks" `Slow test_catalogue;
      Alcotest.test_case "oracle: random tasks" `Slow test_random_tasks;
    ] )

let src = Logs.Src.create "speedup.solver" ~doc:"Simplicial-map search"

module Log = (val Logs.src_log src : Logs.LOG)

type verdict = Solvable of Simplicial_map.t | Unsolvable | Undecided

let is_solvable = function
  | Solvable _ -> true
  | Unsolvable | Undecided -> false

(* CSP assembly, shared by [decide] and [local_task_solvable].  Each
   input simplex contributes its protocol complex and its allowed rows:
   for a color set, the output simplices with exactly those colors, as
   rows of candidate numbers.  Protocol vertices become variables,
   numbered in order of first appearance across the inputs; a
   variable's candidates are the output vertices of its color, in the
   caller's numbering.  Every protocol facet becomes a table constraint
   on the rows of its color set, fetched once per input and color set;
   a one-row unary table (a solo input with a single legal output) is
   applied as a pin.  The search depends only on these numberings and
   the constraint relations, so verdicts and witnesses do not depend on
   the order in which constraints or rows are listed. *)
let solve_instance ?node_limit ?should_stop ~candidates parts =
  let var_of = Vertex.Tbl.create 256 and vars = ref [] in
  List.iter
    (fun (p, _) ->
      List.iter
        (fun v ->
          if not (Vertex.Tbl.mem var_of v) then begin
            Vertex.Tbl.add var_of v (Vertex.Tbl.length var_of);
            vars := v :: !vars
          end)
        (Complex.vertices p))
    parts;
  let vars = Array.of_list (List.rev !vars) in
  let csp =
    Csp.create ~num_vars:(Array.length vars)
      ~candidate_counts:
        (Array.map (fun v -> Array.length (candidates (Vertex.color v))) vars)
  in
  List.iter
    (fun (p, rows) ->
      let tables = ref [] in
      List.iter
        (fun facet ->
          let ids = Simplex.ids facet in
          let tuples =
            match List.assoc_opt ids !tables with
            | Some t -> t
            | None ->
                let t = rows ids in
                tables := (ids, t) :: !tables;
                t
          in
          let scope =
            Array.of_list (List.map (Vertex.Tbl.find var_of) (Simplex.vertices facet))
          in
          match tuples with
          | [| [| value |] |] when Array.length scope = 1 ->
              Csp.pin csp ~var:scope.(0) ~value
          | _ -> Csp.add_table_constraint csp ~scope ~tuples)
        (Complex.facets p))
    parts;
  let result = Csp.solve ?node_limit ?should_stop csp in
  Log.debug (fun m ->
      let stats = Csp.last_stats csp in
      m "instance: %d inputs, %d variables; search: %d nodes, %d revisions"
        (List.length parts) (Array.length vars) stats.Csp.nodes stats.Csp.revisions);
  match result with
  | Csp.Unsat -> Unsolvable
  | Csp.Unknown -> Undecided
  | Csp.Sat assignment ->
      Solvable
        (Simplicial_map.of_assoc
           (Array.to_list
              (Array.mapi
                 (fun id v -> (v, (candidates (Vertex.color v)).(assignment.(id))))
                 vars)))

let decide ?node_limit ?should_stop ~inputs ~protocol ~delta () =
  (* The per-input protocol complexes and Δ images are independent and
     often the dominant cost (protocol complexes grow exponentially in
     rounds), so this pass fans out across the domain pool.  Numbering
     stays sequential below, in input order, so the CSP — and hence
     the whole search — is identical at every job count. *)
  let pairs = Pool.map (fun sigma -> (protocol sigma, delta sigma)) inputs in
  (* Candidates: the Δ vertices of each color, numbered in order of
     first appearance across the inputs. *)
  let number = Vertex.Tbl.create 64 and by_color = Hashtbl.create 16 in
  List.iter
    (fun (_, d) ->
      List.iter
        (fun v ->
          if not (Vertex.Tbl.mem number v) then begin
            let c = Vertex.color v in
            let n, members =
              Option.value (Hashtbl.find_opt by_color c) ~default:(0, [])
            in
            Vertex.Tbl.add number v n;
            Hashtbl.replace by_color c (n + 1, v :: members)
          end)
        (Complex.vertices d))
    pairs;
  let arrays = Hashtbl.create 16 in
  let candidates c =
    match Hashtbl.find_opt arrays c with
    | Some a -> a
    | None ->
        let a =
          match Hashtbl.find_opt by_color c with
          | Some (_, members) -> Array.of_list (List.rev members)
          | None -> [||]
        in
        Hashtbl.add arrays c a;
        a
  in
  let rows d ids =
    Array.of_list
      (List.map
         (fun s -> Array.of_list (List.map (Vertex.Tbl.find number) (Simplex.vertices s)))
         (Complex.simplices_with_ids ids d))
  in
  solve_instance ?node_limit ?should_stop ~candidates
    (List.map (fun (p, d) -> (p, rows d)) pairs)

let task_in_model ?node_limit ?should_stop ?inputs model task ~rounds =
  let inputs =
    match inputs with Some l -> l | None -> Task.input_simplices task
  in
  let compute () =
    decide ?node_limit ?should_stop ~inputs
      ~protocol:(fun sigma -> Model.protocol_complex model sigma rounds)
      ~delta:(Task.delta task) ()
  in
  if not (Cert_store.enabled () && Cert_registry.known_task task.Task.name)
  then compute ()
  else
    let model_name = Model.name model in
    let key =
      Cert.query_key
        (Cert.Q_solve { model_name; task_name = task.Task.name; rounds; inputs })
    in
    let env =
      {
        Cert.task_of_name =
          (fun n -> if n = task.Task.name then Some task else None);
        facets_of_op = (fun _ -> None);
        protocol_of_model =
          (fun n ->
            if n = model_name then Some (Model.protocol_complex model) else None);
      }
    in
    let stored =
      match Cert_store.load key with
      | None -> None
      | Some sexp -> (
          match Cert.decode sexp with
          | Error msg ->
              Log.warn (fun m -> m "stale/corrupt certificate %s: %s" key msg);
              Cert_store.quarantine key;
              None
          | Ok (Cert.Solution s as cert)
            when s.Cert.model_name = model_name
                 && s.Cert.task_name = task.Task.name
                 && s.Cert.rounds = rounds
                 && List.length s.Cert.inputs = List.length inputs
                 && List.for_all2 Simplex.equal s.Cert.inputs inputs -> (
              match Cert.verify env cert with
              | Ok () ->
                  if s.Cert.verdict then
                    Option.map (fun f -> Solvable f) s.Cert.map
                  else Some Unsolvable
              | Error e ->
                  Log.warn (fun m ->
                      m "certificate %s failed verification: %s" key
                        (Cert.error_message e));
                  Cert_store.quarantine key;
                  None)
          | Ok _ ->
              Cert_store.quarantine key;
              None)
    in
    match stored with
    | Some verdict -> verdict
    | None ->
        let verdict = compute () in
        (match verdict with
        | Solvable f ->
            Cert_store.save ~key
              (Cert.encode
                 (Cert.Solution
                    {
                      model_name;
                      task_name = task.Task.name;
                      rounds;
                      inputs;
                      verdict = true;
                      map = Some f;
                    }))
        | Unsolvable ->
            Cert_store.save ~key
              (Cert.encode
                 (Cert.Solution
                    {
                      model_name;
                      task_name = task.Task.name;
                      rounds;
                      inputs;
                      verdict = false;
                      map = None;
                    }))
        | Undecided -> ());
        verdict

let task_in_augmented ?node_limit ?should_stop ?inputs ~box ~alpha task ~rounds =
  let inputs =
    match inputs with Some l -> l | None -> Task.input_simplices task
  in
  decide ?node_limit ?should_stop ~inputs
    ~protocol:(fun sigma -> Augmented.protocol_complex ~box ~alpha sigma rounds)
    ~delta:(Task.delta task) ()

let min_rounds ?node_limit ?inputs ?(max_rounds = 6) model task =
  let rec scan t =
    if t > max_rounds then None
    else
      match task_in_model ?node_limit ?inputs model task ~rounds:t with
      | Solvable _ -> Some t
      | Unsolvable -> scan (t + 1)
      | Undecided -> None
  in
  scan 0

(* The local task Π_{τ,σ} (Definition 1) straight from the shared
   frame of σ: a face τ' of dimension ≥ 1 allows the rows of
   proj_{ID(τ')}(Δ(σ)), and a solo face {v} allows v alone, which the
   assembly applies as a pin.  Candidates are numbered as the frame
   numbers them, so the CSP, its search and the witness are those of
   [decide] on [Local_task.make task ~sigma ~tau]. *)
let local_task_solvable ?node_limit ?should_stop ~one_round task ~sigma ~tau =
  let frame = Task.frame task sigma in
  if not (Delta_frame.admits frame tau) then
    invalid_arg
      "Solvability.local_task_solvable: tau is not a chromatic set of V(Delta(sigma))";
  let rows tau' =
    match Simplex.vertices tau' with
    | [ v ] -> (
        let k = Option.get (Delta_frame.index frame v) in
        function [ c ] when c = Vertex.color v -> [| [| k |] |] | _ -> [||])
    | _ ->
        let within = Simplex.ids tau' in
        fun ids ->
          if List.for_all (fun c -> List.mem c within) ids then
            Delta_frame.rows frame ids
          else [||]
  in
  solve_instance ?node_limit ?should_stop
    ~candidates:(Delta_frame.candidates frame)
    (List.map
       (fun tau' -> (Complex.of_facets (one_round tau'), rows tau'))
       (Simplex.faces tau))

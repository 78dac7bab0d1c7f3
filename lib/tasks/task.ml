type t = {
  name : string;
  arity : int;
  inputs : Complex.t Lazy.t;
  outputs : Complex.t Lazy.t;
  delta : Simplex.t -> Complex.t;
  frame : Simplex.t -> Delta_frame.t;
}

(* Find-or-compute in a table guarded by [lock], with the compute
   outside the lock: the value is a pure function of σ, so a racing
   double-compute is benign and either insert wins. *)
let find_or_add lock tbl compute sigma =
  match Mutex.protect lock (fun () -> Simplex.Tbl.find_opt tbl sigma) with
  | Some x -> x
  | None ->
      let x = compute sigma in
      Mutex.protect lock (fun () ->
          match Simplex.Tbl.find_opt tbl sigma with
          | Some x -> x
          | None ->
              Simplex.Tbl.add tbl sigma x;
              x)

(* Δ is a pure function of σ, and interned simplices make σ an O(1)
   hash key, so every task memoizes its Δ images: closure enumeration,
   local-task validation and the solver request the same handful of
   Δ(σ) complexes thousands of times per run.  Beside them, under the
   same per-task mutex, sit the compiled Δ(σ) frames every local-task
   CSP of σ shares (Delta_frame).  Only tasks that search ask for a
   frame, so the frame table is allocated on the first request.  The
   lock nesting is strictly task → sub-task (algebra compositions call
   the component tasks' deltas, and a frame is compiled from Δ outside
   the lock), never cyclic. *)
let make ~name ~arity ~inputs ~outputs ~delta =
  let lock = Mutex.create () in
  let cache = Simplex.Tbl.create 16 in
  let frames = ref None in
  let delta' sigma = find_or_add lock cache delta sigma in
  let frame sigma =
    let tbl =
      Mutex.protect lock (fun () ->
          match !frames with
          | Some tbl -> tbl
          | None ->
              let tbl = Simplex.Tbl.create 16 in
              frames := Some tbl;
              tbl)
    in
    find_or_add lock tbl (fun sigma -> Delta_frame.make sigma (delta' sigma)) sigma
  in
  { name; arity; inputs; outputs; delta = delta'; frame }

let inputs t = Lazy.force t.inputs
let outputs t = Lazy.force t.outputs
let delta t sigma = t.delta sigma
let frame t sigma = t.frame sigma
let input_simplices t = Complex.all_simplices (inputs t)
let restrict_inputs t c = { t with inputs = lazy c }
let with_name name t = { t with name }

let delta_candidates t sigma color =
  Complex.vertices_of_color color (t.delta sigma)

let delta_equal_on a b simplices =
  List.for_all (fun s -> Complex.equal (a.delta s) (b.delta s)) simplices

let delta_subset_on a b simplices =
  List.for_all (fun s -> Complex.subcomplex (a.delta s) (b.delta s)) simplices

let carrier_map_on t simplices =
  let all =
    List.sort_uniq Simplex.compare (List.concat_map Simplex.faces simplices)
  in
  List.for_all
    (fun sigma ->
      List.for_all
        (fun sigma' -> Complex.subcomplex (t.delta sigma') (t.delta sigma))
        (Simplex.faces sigma))
    all

let chromatic_output_sets t sigma =
  let rec combos = function
    | [] -> [ [] ]
    | i :: rest ->
        let tails = combos rest in
        List.concat_map
          (fun v -> List.map (fun tl -> v :: tl) tails)
          (delta_candidates t sigma i)
  in
  List.map Simplex.of_vertices (combos (Simplex.ids sigma))

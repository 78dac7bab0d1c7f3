type t = {
  colors : int array;  (* ID(σ), ascending *)
  candidates : Vertex.t array array;  (* by color position *)
  rows : int array array array;  (* by bitmask over color positions *)
}

(* ID(σ) has a handful of colors, so a linear scan beats any map. *)
let position colors c =
  let rec go i =
    if i >= Array.length colors then -1
    else if colors.(i) = c then i
    else go (i + 1)
  in
  go 0

let make sigma d =
  let colors = Array.of_list (Simplex.ids sigma) in
  let k = Array.length colors in
  let facets = Complex.facets d in
  let sets = Array.make k Vertex.Set.empty in
  List.iter
    (fun f ->
      List.iter
        (fun v ->
          let i = position colors (Vertex.color v) in
          if i >= 0 then sets.(i) <- Vertex.Set.add v sets.(i))
        (Simplex.vertices f))
    facets;
  let candidates = Array.map (fun s -> Array.of_list (Vertex.Set.elements s)) sets in
  let number = Vertex.Tbl.create 64 in
  Array.iter (Array.iteri (fun n v -> Vertex.Tbl.replace number v n)) candidates;
  (* Each facet as a row over all of ID(σ), -1 where it lacks a color;
     the table of a color set is then the distinct projections of the
     rows that have all of its colors. *)
  let full =
    List.map
      (fun f ->
        let row = Array.make k (-1) in
        List.iter
          (fun v ->
            match Vertex.Tbl.find_opt number v with
            | Some n -> row.(position colors (Vertex.color v)) <- n
            | None -> ())
          (Simplex.vertices f);
        row)
      facets
  in
  let rows =
    Array.init (1 lsl k) (fun mask ->
        let cols = List.filter (fun i -> mask land (1 lsl i) <> 0) (List.init k Fun.id) in
        if cols = [] then [||]
        else
          List.filter_map
            (fun row ->
              if List.for_all (fun i -> row.(i) >= 0) cols then
                Some (Array.of_list (List.map (fun i -> row.(i)) cols))
              else None)
            full
          |> List.sort_uniq compare |> Array.of_list)
  in
  { colors; candidates; rows }

let candidates t c =
  match position t.colors c with -1 -> [||] | i -> t.candidates.(i)

let index t v =
  let cands = candidates t (Vertex.color v) in
  let rec go n =
    if n >= Array.length cands then None
    else if Vertex.equal cands.(n) v then Some n
    else go (n + 1)
  in
  go 0

let admits t tau =
  let vs = Simplex.vertices tau in
  List.length vs = Array.length t.colors
  && List.for_all2
       (fun v c -> Vertex.color v = c && Option.is_some (index t v))
       vs (Array.to_list t.colors)

let rows t ids =
  let rec mask acc = function
    | [] -> t.rows.(acc)
    | c :: rest -> (
        match position t.colors c with
        | -1 -> [||]
        | i -> mask (acc lor (1 lsl i)) rest)
  in
  mask 0 ids

(* The fixed query catalogue and the seeded request streams drawn from
   it.  Every workload draws from this one catalogue, so a query's reply
   can be compared across the paths that answer it (search, memo,
   stored certificate, peer pull). *)

type query = { meth : string; params : (string * Jsonl.t) list }

(* The oracle and the golden digests key replies on this rendering. *)
let key q = q.meth ^ " " ^ Jsonl.to_string (Jsonl.Obj q.params)

let task_params ?m ?eps ?model task n =
  [ ("task", Jsonl.String task); ("n", Jsonl.Int n) ]
  @ (match m with Some m -> [ ("m", Jsonl.Int m) ] | None -> [])
  @ (match eps with Some e -> [ ("eps", Jsonl.String e) ] | None -> [])
  @ match model with Some s -> [ ("model", Jsonl.String s) ] | None -> []

let closure ?m ?eps ?model task n =
  { meth = "closure"; params = task_params ?m ?eps ?model task n }

let solvable ?m ?eps ?model task n rounds =
  {
    meth = "solvable";
    params = task_params ?m ?eps ?model task n @ [ ("rounds", Jsonl.Int rounds) ];
  }

let equiv lhs rhs =
  {
    meth = "equiv";
    params =
      [ ("lhs", Jsonl.String lhs); ("rhs", Jsonl.String rhs); ("n", Jsonl.Int 2) ];
  }

let complex_stats ?(model = "immediate") n rounds =
  {
    meth = "complex-stats";
    params =
      [ ("model", Jsonl.String model); ("n", Jsonl.Int n); ("rounds", Jsonl.Int rounds) ];
  }

(* Cold costs on one core range from 0.2 ms (small consensus closures)
   to about 0.4 s (closure of 1/3-AA at n = 3).  The ε-AA pairs
   (ε, 3ε) at n = 2 let the oracle check Claim 2 from replies alone. *)
let all =
  [|
    closure "consensus" 2;
    closure "consensus" 3;
    closure ~model:"collect" "consensus" 2;
    closure ~model:"snapshot" "consensus" 2;
    closure ~model:"(solo 2)" "consensus" 2;
    closure "relaxed-consensus" 2;
    closure "2set" 2;
    closure ~m:3 ~eps:"1/3" "aa" 2;
    closure ~m:3 ~eps:"1" "aa" 2;
    closure ~m:4 ~eps:"1/4" "aa" 2;
    closure ~m:6 ~eps:"1/6" "aa" 2;
    closure ~m:6 ~eps:"1/2" "aa" 2;
    closure ~m:9 ~eps:"1/9" "aa" 2;
    closure ~m:9 ~eps:"1/3" "aa" 2;
    closure ~m:2 ~eps:"1/2" "aa" 3;
    closure ~m:3 ~eps:"1/3" "aa" 3;
    closure ~m:4 ~eps:"1/4" "liberal-aa" 2;
    closure ~m:4 ~eps:"1/4" ~model:"snapshot" "aa" 2;
    closure ~m:4 ~eps:"1/4" ~model:"(inter iis snapshot)" "aa" 2;
    solvable "consensus" 2 1;
    solvable "consensus" 3 1;
    solvable ~m:3 ~eps:"1/3" "aa" 2 1;
    solvable ~m:4 ~eps:"1/4" "aa" 2 1;
    solvable ~m:4 ~eps:"1/4" "aa" 2 2;
    solvable ~m:9 ~eps:"1/9" "aa" 2 1;
    solvable ~m:9 ~eps:"1/9" "aa" 2 2;
    solvable ~m:2 ~eps:"1/2" "aa" 3 1;
    solvable ~m:4 ~eps:"1/4" ~model:"(inter iis snapshot)" "aa" 2 2;
    equiv "iis" "(inter iis snapshot)";
    equiv "iis" "(solo 2)";
    equiv "snapshot" "(inter snapshot collect)";
    equiv "iis" "(conc 1)";
    equiv "iis" "snapshot";
    equiv "iis" "(resil iis 1)";
    equiv "collect" "(union collect snapshot)";
    complex_stats 2 1;
    complex_stats 3 1;
    complex_stats 3 2;
    complex_stats 2 3;
    complex_stats ~model:"snapshot" 3 1;
    complex_stats ~model:"(solo 2)" 3 1;
    complex_stats ~model:"snapshot" 3 2;
  |]

(* A 48-bit LCG with the drand48 constants, as in bench/load.ml: the
   draw is a pure function of the seed. *)
let lcg s = ((s * 25214903917) + 11) land 0xFFFFFFFFFFFF

type rng = { mutable state : int }

let rng seed = { state = lcg (lcg (seed land 0xFFFFFFFFFFFF) + 0x5DEECE66D) }

let below r bound =
  r.state <- lcg r.state;
  (r.state lsr 17) mod bound

let shuffle r a =
  for i = Array.length a - 1 downto 1 do
    let j = below r (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

type item = { query : query; repeat : bool }

(* One pass of the closed-loop workloads: every catalogue entry once,
   in a seeded order, plus [List.length all / 5] seeded repeats, each
   placed 8–23 positions after the entry it repeats.  Every pass does the
   same first-seen work, so throughput does not depend on which entries
   a seed happens to draw. *)
let stream ~seed ~pass =
  let r = rng ((seed * 1_000_003) + (pass * 7_919) + 17) in
  let perm = Array.copy all in
  shuffle r perm;
  let n = Array.length perm in
  let firsts =
    List.init n (fun i -> (Float.of_int i, { query = perm.(i); repeat = false }))
  in
  let repeats =
    List.init (n / 5) (fun _ ->
        let j = below r n in
        let gap = 8 + below r 16 in
        (Float.of_int (j + gap) +. 0.5, { query = perm.(j); repeat = true }))
  in
  List.stable_sort (fun (a, _) (b, _) -> Float.compare a b) (firsts @ repeats)
  |> List.map snd |> Array.of_list

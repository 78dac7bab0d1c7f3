(* Order statistics for latency samples (nearest-rank). *)

let sorted samples =
  let a = Array.copy samples in
  Array.sort Float.compare a;
  a

(* 1-based nearest rank of quantile [q] among [n] samples. *)
let rank n q = Int.max 1 (Int.min n (int_of_float (Float.ceil ((q *. Float.of_int n) -. 1e-9))))

let at sorted q =
  match Array.length sorted with 0 -> Float.nan | n -> sorted.(rank n q - 1)

let beyond n q = n - rank n q

let median samples = at (sorted samples) 0.5

type tail = { label : string; q : float; value : float; beyond : int }

(* The highest of p99.9 / p99 / p90 with at least ten samples beyond
   it; with fewer than 100 samples no percentile qualifies and p90 is
   reported with its (short) count, so a caller can reject it. *)
let tail sorted =
  let n = Array.length sorted in
  let cands = [ ("p99.9", 0.999); ("p99", 0.99); ("p90", 0.9) ] in
  let label, q =
    match List.find_opt (fun (_, q) -> beyond n q >= 10) cands with
    | Some c -> c
    | None -> ("p90", 0.9)
  in
  { label; q; value = at sorted q; beyond = beyond n q }

(* Tests of the benchmark's own logic: the tail-percentile choice, the
   determinism of the request streams, span self-time arithmetic and
   the reply oracle. *)

open Perfbench_core

let samples n = Percentile.sorted (Array.init n (fun i -> Float.of_int (i + 1)))

let test_tail () =
  let t = Percentile.tail (samples 100) in
  Alcotest.(check string) "100 samples: p90" "p90" t.label;
  Alcotest.(check int) "ten beyond p90" 10 t.beyond;
  Alcotest.(check (float 0.)) "p90 of 1..100" 90. t.value;
  let t = Percentile.tail (samples 1000) in
  Alcotest.(check string) "1000 samples: p99" "p99" t.label;
  Alcotest.(check int) "ten beyond p99" 10 t.beyond;
  let t = Percentile.tail (samples 10_000) in
  Alcotest.(check string) "10000 samples: p99.9" "p99.9" t.label;
  let t = Percentile.tail (samples 999) in
  Alcotest.(check string) "999 samples: p99 lacks ten beyond" "p90" t.label;
  let t = Percentile.tail (samples 99) in
  Alcotest.(check bool) "99 samples: no percentile qualifies" true (t.beyond < 10)

let test_median () =
  Alcotest.(check (float 0.)) "odd count" 3. (Percentile.median [| 5.; 1.; 3.; 4.; 2. |]);
  Alcotest.(check (float 0.)) "single" 7. (Percentile.median [| 7. |])

let keys items = Array.to_list (Array.map (fun (i : Catalogue.item) -> Catalogue.key i.query) items)

let test_stream_determinism () =
  let a = Catalogue.stream ~seed:5 ~pass:0 and b = Catalogue.stream ~seed:5 ~pass:0 in
  Alcotest.(check (list string)) "same seed, same requests" (keys a) (keys b);
  let c = Catalogue.stream ~seed:6 ~pass:0 in
  Alcotest.(check bool) "another seed, another draw" false (keys a = keys c);
  let firsts s =
    List.sort compare
      (List.filter_map
         (fun (i : Catalogue.item) -> if i.repeat then None else Some (Catalogue.key i.query))
         (Array.to_list s))
  in
  let catalogue = List.sort compare (Array.to_list (Array.map Catalogue.key Catalogue.all)) in
  Alcotest.(check (list string)) "every entry first-seen once (seed 5)" catalogue (firsts a);
  Alcotest.(check (list string)) "every entry first-seen once (seed 6)" catalogue (firsts c);
  let n = Array.length Catalogue.all in
  Alcotest.(check int) "a minority of repeats" (n + (n / 5)) (Array.length a);
  Array.iteri
    (fun pos (i : Catalogue.item) ->
      if i.repeat then
        let first =
          Array.to_list a
          |> List.mapi (fun p (j : Catalogue.item) -> (p, j))
          |> List.find (fun (_, (j : Catalogue.item)) -> (not j.repeat) && j.query = i.query)
          |> fst
        in
        Alcotest.(check bool) "a repeat follows its first sight" true (first < pos))
    a

let span id name parent start stop = { Spans.id; name; parent; request = 0; start; stop }

let self name totals = Option.value ~default:nan (Hashtbl.find_opt totals name)

let test_self_time () =
  let spans =
    [
      span 0 "root" (-1) 0. 10.;
      span 1 "a" 0 1. 4.;
      span 2 "b" 0 5. 9.;
      span 3 "c" 2 6. 7.;
      span 4 "a" (-1) 20. 22.;
    ]
  in
  let t = Spans.self_times spans in
  Alcotest.(check (float 1e-9)) "root minus its children" 3. (self "root" t);
  Alcotest.(check (float 1e-9)) "a summed over two spans" 5. (self "a" t);
  Alcotest.(check (float 1e-9)) "b minus its child" 3. (self "b" t);
  Alcotest.(check (float 1e-9)) "leaf" 1. (self "c" t);
  (* Spans recorded through [with_span] on a scripted clock. *)
  let ticks = ref 0. in
  let s = Spans.create (fun () -> !ticks) in
  s.Spans.enabled <- true;
  Spans.with_span s "outer" (fun () ->
      ticks := 1.;
      Spans.with_span s "inner" (fun () -> ticks := 3.);
      ticks := 4.);
  let t = Spans.self_times s.Spans.spans in
  Alcotest.(check (float 1e-9)) "outer" 2. (self "outer" t);
  Alcotest.(check (float 1e-9)) "inner" 2. (self "inner" t);
  s.Spans.enabled <- false;
  Spans.with_span s "off" ignore;
  Alcotest.(check int) "disabled spans record nothing" 2 (List.length s.Spans.spans)

(* A reply line as the daemon renders one. *)
let reply id result =
  Jsonl.to_string (Jsonl.Obj [ ("id", Jsonl.Int id); ("ok", Jsonl.Bool true); ("result", result) ])

let oracle_for pairs =
  let golden = Hashtbl.create 8 in
  List.iter
    (fun (q, result) ->
      let line = reply 0 result in
      Hashtbl.replace golden (Catalogue.key q)
        (Oracle.digest (Option.get (Oracle.body ~id:(Jsonl.Int 0) line))))
    pairs;
  Oracle.create golden

let is_error = function Ok () -> false | Error _ -> true

let test_oracle () =
  let q = Catalogue.complex_stats 2 1 in
  let good = Jsonl.Obj [ ("facets", Jsonl.Int 3) ] and bad = Jsonl.Obj [ ("facets", Jsonl.Int 4) ] in
  let o = oracle_for [ (q, good) ] in
  Alcotest.(check bool) "a wrong reply is caught" true
    (is_error (Oracle.check o q ~id:(Jsonl.Int 7) (reply 7 bad)));
  Alcotest.(check bool) "the right reply passes" false
    (is_error (Oracle.check o q ~id:(Jsonl.Int 7) (reply 7 good)));
  Alcotest.(check bool) "a reply under another id is caught" true
    (is_error (Oracle.check o q ~id:(Jsonl.Int 8) (reply 7 good)));
  let err =
    Jsonl.to_string
      (Jsonl.Obj
         [
           ("id", Jsonl.Int 9);
           ("ok", Jsonl.Bool false);
           ("error", Jsonl.Obj [ ("code", Jsonl.String "overloaded") ]);
         ])
  in
  Alcotest.(check bool) "a refusal counts as failed" true
    (is_error (Oracle.check o q ~id:(Jsonl.Int 9) err));
  (* Cor. 1, even when the golden digest agrees with the wrong reply. *)
  let c = Catalogue.closure "consensus" 2 in
  let not_fixed = Jsonl.Obj [ ("fixed_point", Jsonl.Bool false) ] in
  Alcotest.(check bool) "Cor. 1 violation" true
    (is_error (Oracle.check (oracle_for [ (c, not_fixed) ]) c ~id:(Jsonl.Int 0) (reply 0 not_fixed)));
  (* Cor. 3. *)
  let s = Catalogue.solvable ~m:4 ~eps:"1/4" "aa" 2 1 in
  let solvable = Jsonl.Obj [ ("verdict", Jsonl.String "solvable") ] in
  Alcotest.(check bool) "Cor. 3 violation" true
    (is_error (Oracle.check (oracle_for [ (s, solvable) ]) s ~id:(Jsonl.Int 0) (reply 0 solvable)));
  Alcotest.(check int) "⌈log3 9⌉" 2 (Oracle.aa_rounds ~n:2 "1/9");
  Alcotest.(check int) "⌈log3 4⌉" 2 (Oracle.aa_rounds ~n:2 "1/4");
  Alcotest.(check int) "⌈log2 4⌉" 2 (Oracle.aa_rounds ~n:3 "1/4");
  Alcotest.(check int) "ε = 1" 0 (Oracle.aa_rounds ~n:2 "1")

let row sigma delta closure =
  Jsonl.Obj
    [
      ("sigma", Jsonl.String sigma);
      ("delta_facets", Jsonl.Int delta);
      ("closure_facets", Jsonl.Int closure);
    ]

let test_claim2 () =
  let eps = Catalogue.closure ~m:6 ~eps:"1/6" "aa" 2 and three = Catalogue.closure ~m:6 ~eps:"1/2" "aa" 2 in
  let closure_of_eps = Jsonl.Obj [ ("per_sigma", Jsonl.List [ row "s" 1 5 ]) ] in
  let agrees = Jsonl.Obj [ ("per_sigma", Jsonl.List [ row "s" 5 7 ]) ] in
  let disagrees = Jsonl.Obj [ ("per_sigma", Jsonl.List [ row "s" 4 7 ]) ] in
  let o = oracle_for [ (eps, closure_of_eps); (three, agrees) ] in
  Alcotest.(check bool) "ε reply" false (is_error (Oracle.check o eps ~id:(Jsonl.Int 0) (reply 0 closure_of_eps)));
  Alcotest.(check bool) "Claim 2 holds" false (is_error (Oracle.check o three ~id:(Jsonl.Int 1) (reply 1 agrees)));
  let o = oracle_for [ (eps, closure_of_eps); (three, disagrees) ] in
  ignore (Oracle.check o eps ~id:(Jsonl.Int 0) (reply 0 closure_of_eps));
  Alcotest.(check bool) "Claim 2 violation" true
    (is_error (Oracle.check o three ~id:(Jsonl.Int 1) (reply 1 disagrees)))

let () =
  Alcotest.run "perfbench"
    [
      ( "percentile",
        [
          Alcotest.test_case "tail choice" `Quick test_tail;
          Alcotest.test_case "median" `Quick test_median;
        ] );
      ("catalogue", [ Alcotest.test_case "stream determinism" `Quick test_stream_determinism ]);
      ("spans", [ Alcotest.test_case "self time" `Quick test_self_time ]);
      ( "oracle",
        [
          Alcotest.test_case "wrong replies" `Quick test_oracle;
          Alcotest.test_case "Claim 2" `Quick test_claim2;
        ] );
    ]

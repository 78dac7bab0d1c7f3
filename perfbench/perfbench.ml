(* The repository's end-to-end benchmark: drives real [speedup serve]
   daemons with one of two workloads and prints the end-to-end metrics
   (--trace 0) or the per-layer metrics (--trace 1) as the last line of
   standard output.  See perfbench/README.md. *)

let workload = ref ""
let seed = ref 1
let seconds = ref 10
let trace = ref 0
let exe = ref "_build/default/bin/main.exe"
let golden_path = "perfbench/golden.json"
let write_golden = ref ""

let spec =
  [
    ( "--workload",
      Arg.Set_string workload,
      "NAME cold-certify | replica-catchup" );
    ("--seed", Arg.Set_int seed, "N workload seed");
    ("--seconds", Arg.Set_int seconds, "S length of the timed phase");
    ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
    ("--speedup", Arg.Set_string exe, "EXE the speedup binary to serve with");
    ( "--write-golden",
      Arg.Set_string write_golden,
      "FILE record golden reply digests from one cold pass and exit" );
  ]

let now = Unix.gettimeofday
let ms s = s *. 1000.
let median l = Percentile.median (Array.of_list l)

(* Jiffies of the host's CPUs, total and stolen by the hypervisor, so
   [detail] can tell a slow spell of the host from a slow program. *)
let cpu_jiffies () =
  match In_channel.with_open_text "/proc/stat" In_channel.input_line with
  | Some line -> (
      match List.filter (( <> ) "") (String.split_on_char ' ' line) with
      | "cpu" :: fields ->
          let v = List.map int_of_string fields in
          (List.fold_left ( + ) 0 v, match List.nth_opt v 7 with Some s -> s | None -> 0)
      | _ -> (0, 0))
  | None | (exception Sys_error _) -> (0, 0)

(* The share of CPU time the hypervisor stole between two readings. *)
let steal_pct (total0, steal0) (total1, steal1) =
  100. *. Float.of_int (steal1 - steal0) /. Float.of_int (max 1 (total1 - total0))

(* ---- run state ---- *)

type run = {
  dir : string;
  oracle : Oracle.t;
  mutable attempted : int;
  mutable failed : int;
  mutable checks : string list;  (** failed workload self-checks *)
  mutable latencies : float list;  (** ms, timed phase *)
  mutable pass_steal : float list;  (** host steal % during each timed pass, latest first *)
  mutable access : (string * float * Loadgen.sample array * Catalogue.query array) list;
      (** access log, start time, client samples and queries of each
          traced pass *)
}

let complain what =
  Printf.eprintf "perfbench: %s\n%!" what

let self_check run ok what =
  if not ok then begin
    complain ("self-check failed: " ^ what);
    run.checks <- what :: run.checks
  end

(* Account one reply: a missing reply, an error reply (refusal,
   timeout, internal) and a wrong reply all count as failed; only
   correct replies contribute latency samples. *)
let account run ~timed (q : Catalogue.query) ~id (s : Loadgen.sample) =
  if timed then run.attempted <- run.attempted + 1;
  let verdict =
    if Float.is_nan s.received then Error ("no reply: " ^ s.reply)
    else Oracle.check run.oracle q ~id:(Jsonl.Int id) s.reply
  in
  match verdict with
  | Ok () ->
      if timed then run.latencies <- ms (s.received -. s.sent) :: run.latencies
  | Error reason ->
      run.failed <- run.failed + 1;
      if run.failed <= 10 then
        complain (Printf.sprintf "failed reply to %s: %s" (Catalogue.key q) reason)

let stream k = Array.map (fun (i : Catalogue.item) -> i.query) (Catalogue.stream ~seed:!seed ~pass:k)

(* The daemon's counters after a pass, by path in its [stats] reply. *)
type counts = string list -> int

let counts_of stats path =
  List.fold_left (fun acc k -> Option.bind acc (Jsonl.member k)) (Some stats) path
  |> Fun.flip Option.bind Jsonl.to_int
  |> Option.value ~default:0

type pass = {
  throughput : float;
  setup : float option;  (** launch to first request, when a pass has its own *)
  rss : float;
  store : float;
  counts : counts;
}

let launch run ?store ?peers name =
  let t0 = now () in
  let access_log =
    if !trace = 1 then Some (Filename.concat run.dir (name ^ ".access")) else None
  in
  let d = Daemon.spawn ~exe:!exe ~dir:run.dir ~name ?store ?peers ?access_log () in
  Client.close (Daemon.connect d);
  (d, t0, access_log)

(* The closed loops keep one request in flight per connection. *)
let connections = 2

(* One closed-loop pass of [queries] against [d]. *)
let closed_pass run ~timed ?access_log d queries =
  let lines = Array.mapi (fun id q -> Loadgen.request_line ~id q) queries in
  let samples, start, stop = Loadgen.closed_loop ~connections (Daemon.addr d) lines in
  Array.iteri (fun id s -> account run ~timed queries.(id) ~id s) samples;
  Option.iter (fun f -> run.access <- (f, start, samples, queries) :: run.access) access_log;
  Float.of_int (Array.length queries) /. (stop -. start)

let stats_of d =
  let c = Daemon.connect d in
  Fun.protect ~finally:(fun () -> Client.close c) (fun () -> Daemon.rpc c "stats")

let finish d =
  let stats = stats_of d in
  let rss = Daemon.peak_rss_mb d and store = Daemon.store_mb d in
  Daemon.stop d;
  (counts_of stats, rss, store)

(* Passes until [--seconds] have gone by and the run has sent enough
   requests for its tail to be p99 with ten samples beyond it, so the
   percentile does not flip between p90 and p99 with the machine's
   speed from one run to the next. *)
let min_requests = 1000

let timed_passes run f =
  let stop_at = now () +. Float.of_int !seconds in
  let rec go k acc =
    if k > 0 && now () >= stop_at && run.attempted >= min_requests then List.rev acc
    else begin
      let before = cpu_jiffies () in
      let p = f k in
      run.pass_steal <- steal_pct before (cpu_jiffies ()) :: run.pass_steal;
      go (k + 1) (p :: acc)
    end
  in
  go 0 []

(* replica-catchup's set-up, repeated [setups] times so setup_s is a
   median; [make k] returns its set-up time and state, and every state
   but the last is released with [drop]. *)
let setups = 5

let repeat_setup make drop =
  let rec go k times =
    let t, state = make k in
    if k = setups - 1 then (List.rev (t :: times), state)
    else begin
      drop state;
      go (k + 1) (t :: times)
    end
  in
  go 0 []

(* A daemon that has answered the catalogue once. *)
let filled run name =
  let d, t0, _ = launch run name in
  ignore (closed_pass run ~timed:false d (stream (-1)));
  (d, t0)

(* ---- workloads ---- *)

type outcome = { setup_times : float list; passes : pass list }

let cold_certify run =
  let passes =
    timed_passes run (fun k ->
        let d, t0, access_log = launch run (Printf.sprintf "cold-%d" k) in
        let setup = now () -. t0 in
        let throughput = closed_pass run ~timed:true ?access_log d (stream k) in
        let counts, rss, store = finish d in
        Daemon.remove_tree d.Daemon.store;
        { throughput; setup = Some setup; rss; store; counts })
  in
  { setup_times = List.filter_map (fun p -> p.setup) passes; passes }

let replica_catchup run =
  let setup_times, origin =
    repeat_setup
      (fun k ->
        let o, t0 = filled run (Printf.sprintf "origin-%d" k) in
        let r, _, _ = launch run ~peers:o (Printf.sprintf "replica-s%d" k) in
        let t = now () -. t0 in
        Daemon.stop r;
        Daemon.remove_tree r.Daemon.store;
        (t, o))
      (fun o ->
        Daemon.stop o;
        Daemon.remove_tree o.Daemon.store)
  in
  let passes =
    timed_passes run (fun k ->
        let d, _, access_log = launch run ~peers:origin (Printf.sprintf "replica-%d" k) in
        let throughput = closed_pass run ~timed:true ?access_log d (stream k) in
        let counts, rss, store = finish d in
        Daemon.remove_tree d.Daemon.store;
        self_check run (counts [ "memo"; "enumerations" ] = 0) "replica-catchup enumerated";
        self_check run (counts [ "replication"; "rejects" ] = 0) "replica-catchup rejected a pull";
        self_check run (counts [ "replication"; "pull_misses" ] = 0) "replica-catchup missed a pull";
        self_check run (counts [ "replication"; "pulls" ] > 0) "replica-catchup pulled nothing";
        { throughput; setup = None; rss; store; counts })
  in
  Daemon.stop origin;
  { setup_times; passes }

(* ---- metrics ---- *)

let metric name value unit = (name, value, unit)

(* Latency over every correct reply of the timed phase; the tail is
   the highest percentile with ten samples beyond it. *)
let end_to_end run o =
  let sorted = Percentile.sorted (Array.of_list run.latencies) in
  let tail = Percentile.tail sorted in
  ( [
      metric "setup_s" (median o.setup_times) "s";
      metric "throughput_qps" (median (List.map (fun p -> p.throughput) o.passes)) "1/s";
      metric "latency_p50_ms" (Percentile.at sorted 0.5) "ms";
      metric "latency_tail_ms" tail.value "ms";
      metric "peak_rss_mb" (median (List.map (fun p -> p.rss) o.passes)) "MB";
      metric "store_mb" (median (List.map (fun p -> p.store) o.passes)) "MB";
    ],
    tail )

let count_paths =
  [
    ("closure.memo_hits", [ "memo"; "hits" ]);
    ("closure.memo_misses", [ "memo"; "misses" ]);
    ("closure.memo_entries", [ "memo"; "entries" ]);
    ("closure.enumerations", [ "memo"; "enumerations" ]);
    ("cert.store_hits", [ "store"; "hits" ]);
    ("cert.store_misses", [ "store"; "misses" ]);
    ("cert.store_writes", [ "store"; "writes" ]);
    ("cert.corrupt", [ "store"; "corrupt" ]);
    ("pool.batches", [ "pool"; "batches" ]);
    ("pool.chunks", [ "pool"; "chunks" ]);
    ("pool.items", [ "pool"; "items" ]);
    ("pool.steals", [ "pool"; "steals" ]);
    ("pool.stolen_chunks", [ "pool"; "stolen_chunks" ]);
    ("fleet.pulls", [ "replication"; "pulls" ]);
    ("fleet.pull_misses", [ "replication"; "pull_misses" ]);
    ("fleet.installs", [ "replication"; "installs" ]);
    ("fleet.rejects", [ "replication"; "rejects" ]);
    ("server.queue_high_water", [ "queue_high_water" ]);
    ("server.refused", [ "errors"; "overloaded" ]);
  ]

(* Enumerations that produced no new memo entry: two workers computing
   the same Δ'(σ) at once.  Exact on a daemon whose memo only search
   fills; 0 wherever nothing enumerates. *)
let redundant p = max 0 (p.counts [ "memo"; "enumerations" ] - p.counts [ "memo"; "entries" ])

(* Per-pass medians of the daemon's own counters. *)
let count_metrics o =
  let med f = median (List.map (fun p -> Float.of_int (f p)) o.passes) in
  List.map (fun (name, path) -> metric name (med (fun p -> p.counts path)) "count") count_paths
  @ [
      metric "closure.redundant_enumerations" (med redundant) "count";
      metric "closure.redundant_enumerations_spread"
        (let r = List.map redundant o.passes in
         Float.of_int (List.fold_left max min_int r - List.fold_left min max_int r))
        "count";
    ]

(* Server-side time per compute request from the access logs, and the
   transport share: client latency minus server wall. *)
let access_metrics run =
  let queue = ref [] and wall = ref [] and transport = ref [] in
  List.iter
    (fun (file, since, (samples : Loadgen.sample array), (queries : Catalogue.query array)) ->
      In_channel.with_open_text file In_channel.input_lines
      |> List.iter (fun line ->
             match Jsonl.of_string line with
             | Error _ -> ()
             | Ok e -> (
                 let num k = Option.bind (Jsonl.member k e) Jsonl.to_float in
                 match (Jsonl.member "id" e, Jsonl.member "method" e, num "queue_ms", num "wall_ms") with
                 | Some (Jsonl.Int id), Some (Jsonl.String m), Some q, Some w
                   when num "ts" >= Some since && id < Array.length samples
                        && m = queries.(id).Catalogue.meth ->
                     let s = samples.(id) in
                     queue := q :: !queue;
                     wall := w :: !wall;
                     if not (Float.is_nan s.received) then
                       transport := (ms (s.received -. s.sent) -. w) :: !transport
                 | _ -> ())))
    run.access;
  let mean l = List.fold_left ( +. ) 0. l /. Float.of_int (max 1 (List.length l)) in
  [
    metric "server.queue_wait_ms" (mean !queue) "ms";
    metric "server.wall_ms" (mean !wall) "ms";
    metric "server.transport_ms" (mean !transport) "ms";
  ]

let print_result ~correct ~attempted ~failed metrics =
  print_endline
    (Jsonl.to_string
       (Jsonl.Obj
          [
            ("correct", Jsonl.Bool correct);
            ("attempted", Jsonl.Int attempted);
            ("failed", Jsonl.Int failed);
            ( "metrics",
              Jsonl.Obj
                (List.map
                   (fun (name, value, unit) ->
                     (name, Jsonl.Obj [ ("value", Jsonl.Float value); ("unit", Jsonl.String unit) ]))
                   metrics) );
          ]))

(* ---- the traced replay ---- *)

let replay_check run (q : Catalogue.query) ~id reply =
  match Oracle.check run.oracle q ~id:(Jsonl.Int id) reply with
  | Ok () -> ()
  | Error reason ->
      run.failed <- run.failed + 1;
      complain (Printf.sprintf "traced replay, wrong reply to %s: %s" (Catalogue.key q) reason)

(* Σ server wall of the [cert-pull] requests an origin logged since [t]. *)
let pull_wall_ms log t =
  In_channel.with_open_text log In_channel.input_lines
  |> List.fold_left
       (fun acc line ->
         match Jsonl.of_string line with
         | Ok e
           when Jsonl.member "method" e = Some (Jsonl.String "cert-pull")
                && Option.bind (Jsonl.member "ts" e) Jsonl.to_float >= Some t ->
             acc +. Option.value ~default:0. (Option.bind (Jsonl.member "wall_ms" e) Jsonl.to_float)
         | _ -> acc)
       0.

let traced_replay run =
  (* One job, as a single search runs: every span nests on this domain. *)
  Pool.set_jobs (Some 1);
  let check = replay_check run in
  let store name =
    let d = Filename.concat run.dir name in
    Daemon.remove_tree d;
    Cert_store.set_dir (Some d);
    Closure.reset_memo ()
  in
  let fresh =
    let k = ref 0 in
    fun name () ->
      incr k;
      store (Printf.sprintf "%s-%d" name !k);
      Replay.create ()
  in
  let setup, export_ms, finish =
    match !workload with
    | "cold-certify" -> ({ Replay.prepare = fresh "replay-cold"; queries = stream 0 }, None, ignore)
    | _ ->
        let origin, _, log = launch run "replay-origin" in
        ignore (closed_pass run ~timed:false origin (stream (-1)));
        let prepare () =
          let ctx = fresh "replay-replica" () in
          Cert_store.set_on_miss (Some (Replay.pull_hook ctx (Daemon.addr origin)));
          ctx
        in
        ( { Replay.prepare; queries = stream 0 },
          Option.map pull_wall_ms log,
          fun () ->
            Cert_store.set_on_miss None;
            Daemon.stop origin )
  in
  let metrics, spans = Replay.run ~check ?export_ms setup in
  finish ();
  Cert_store.set_dir None;
  let file = Printf.sprintf ".perfbench/spans-%s-%d.jsonl" !workload !seed in
  Out_channel.with_open_text file (fun oc -> Spans.to_jsonl oc spans);
  metrics

let workloads =
  [
    ("cold-certify", cold_certify);
    ("replica-catchup", replica_catchup);
  ]

(* Record the golden reply digests: one cold pass over the catalogue. *)
let record_golden run file =
  let d, _, _ = launch run "golden" in
  let queries = Catalogue.all in
  let lines = Array.mapi (fun id q -> Loadgen.request_line ~id q) queries in
  let samples, _, _ = Loadgen.closed_loop ~connections:1 (Daemon.addr d) lines in
  Daemon.stop d;
  let fields =
    Array.to_list
      (Array.mapi
         (fun id (s : Loadgen.sample) ->
           match Oracle.body ~id:(Jsonl.Int id) s.reply with
           | Some b -> (Catalogue.key queries.(id), Jsonl.String (Oracle.digest b))
           | None -> failwith ("no reply to " ^ Catalogue.key queries.(id)))
         samples)
  in
  Out_channel.with_open_text file (fun oc ->
      output_string oc "{\n";
      output_string oc
        (String.concat ",\n"
           (List.map (fun (k, v) -> Printf.sprintf "  \"%s\": %s" (Jsonl.escape k) (Jsonl.to_string v)) fields));
      output_string oc "\n}\n")

let main () =
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) "perfbench --workload NAME --seed N --seconds S --trace 0|1";
  if not (Sys.file_exists !exe) then begin
    complain ("no speedup binary at " ^ !exe);
    exit 2
  end;
  let dir = Filename.concat ".perfbench" (Printf.sprintf "run-%d" (Unix.getpid ())) in
  Daemon.remove_tree dir;
  (try Unix.mkdir ".perfbench" 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  Unix.mkdir dir 0o755;
  let cleanup () =
    Daemon.kill_all ();
    Daemon.remove_tree dir
  in
  at_exit cleanup;
  let on_signal = Sys.Signal_handle (fun _ -> exit 3) in
  Sys.set_signal Sys.sigterm on_signal;
  Sys.set_signal Sys.sigint on_signal;
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  (* A wedged daemon must not outlast the run's 180 s budget. *)
  Sys.set_signal Sys.sigalrm (Sys.Signal_handle (fun _ -> complain "timed out"; exit 4));
  ignore (Unix.alarm 170);
  if !write_golden <> "" then begin
    let run = { dir; oracle = Oracle.create (Hashtbl.create 1); attempted = 0; failed = 0; checks = []; latencies = []; pass_steal = []; access = [] } in
    record_golden run !write_golden;
    exit 0
  end;
  let f =
    match List.assoc_opt !workload workloads with
    | Some f -> f
    | None ->
        complain ("unknown workload " ^ !workload);
        exit 2
  in
  let run =
    {
      dir;
      oracle = Oracle.create (Oracle.load_golden golden_path);
      attempted = 0;
      failed = 0;
      checks = [];
      latencies = [];
      pass_steal = [];
      access = [];
    }
  in
  let jiffies0 = cpu_jiffies () in
  let o = f run in
  let jiffies1 = cpu_jiffies () in
  let e2e, tail = end_to_end run o in
  let repeats =
    let s = Catalogue.stream ~seed:!seed ~pass:0 in
    let r = Array.fold_left (fun acc (i : Catalogue.item) -> if i.repeat then acc + 1 else acc) 0 s in
    100. *. Float.of_int r /. Float.of_int (Array.length s)
  in
  let detail =
    Jsonl.Obj
      [
         ("workload", Jsonl.String !workload);
         ("seed", Jsonl.Int !seed);
         ("passes", Jsonl.Int (List.length o.passes));
         ("samples", Jsonl.Int (List.length run.latencies));
         ("tail_percentile", Jsonl.String tail.label);
         ("tail_beyond", Jsonl.Int tail.beyond);
         ("failed_share", Jsonl.Float (Float.of_int run.failed /. Float.of_int (max 1 run.attempted)));
         ("repeat_share_pct", Jsonl.Float repeats);
         ( "redundant_enumerations",
           Jsonl.List (List.map (fun p -> Jsonl.Int (redundant p)) o.passes) );
         ("setup_s", Jsonl.List (List.map (fun t -> Jsonl.Float t) o.setup_times));
         ("throughput_qps", Jsonl.List (List.map (fun p -> Jsonl.Float p.throughput) o.passes));
         ("self_checks_failed", Jsonl.List (List.map (fun s -> Jsonl.String s) run.checks));
         ("host_steal_pct", Jsonl.Float (steal_pct jiffies0 jiffies1));
         ("pass_steal_pct", Jsonl.List (List.rev_map (fun x -> Jsonl.Float x) run.pass_steal));
      ]
  in
  print_endline ("detail: " ^ Jsonl.to_string detail);
  let metrics =
    if !trace = 0 then e2e
    else access_metrics run @ count_metrics o @ traced_replay run
  in
  let correct = run.failed = 0 && run.checks = [] && run.attempted > 0 in
  print_result ~correct ~attempted:run.attempted ~failed:run.failed metrics;
  exit (if correct then 0 else 1)

let () = main ()

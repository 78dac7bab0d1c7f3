(* The traced replay behind --trace 1.  The benchmark process answers a
   workload's requests itself, through the same public functions the
   daemon's request path calls, and wraps each call in a span:
   Wire.decode_request / Wire.ok_reply around the request, and inside a
   [closure] request the steps of Closure.delta on a miss — the memo,
   Cert.query_key, Cert_store.load, Cert.decode, Cert.verify,
   Task.chromatic_output_sets, the zero-round prefilter,
   Solvability.local_task_solvable with a traced [one_round] callback,
   Cert.encode and Cert_store.save; inside a [solvable] request the
   steps of Solvability.task_in_model — the stored certificate's key,
   load, decode and verify, else Solvability.decide with traced
   protocol and Δ callbacks, Cert.encode and Cert_store.save.  A
   replica's pull-on-miss hook is replaced by one that wraps Client.rpc
   cert-pull and Cert_sync.install.  Replies must equal the daemon's
   byte for byte.

   The replay runs several times from the same state, spans on and
   off: the ratio of their wall times is the tracing overhead. *)

let now = Unix.gettimeofday

type ctx = {
  spans : Spans.t;
  memo : (string, unit) Hashtbl.t;  (** Δ'(σ) keys known to be in the real memo *)
  equiv_memo : (string, unit) Hashtbl.t;
  seen : (string, unit) Hashtbl.t;  (** queries answered before *)
  mutable populate : (unit -> unit) list;
      (** fills the real memos after a request, outside its timing *)
  mutable candidates : int;
  mutable hard : int;
  mutable members : int;
  mutable one_round_calls : int;
  mutable bytes_written : int;
  mutable bytes_read : int;
  mutable requests : int;
  mutable repeats : int;
  mutable enumerated : int;  (** requests that ran at least one Δ' enumeration *)
  mutable enumerations : int;
}

let create () =
  {
    spans = Spans.create now;
    memo = Hashtbl.create 256;
    equiv_memo = Hashtbl.create 16;
    seen = Hashtbl.create 64;
    populate = [];
    candidates = 0;
    hard = 0;
    members = 0;
    one_round_calls = 0;
    bytes_written = 0;
    bytes_read = 0;
    requests = 0;
    repeats = 0;
    enumerated = 0;
    enumerations = 0;
  }

let span ctx name f = Spans.with_span ctx.spans name f

(* ---- parameters, as the wire reads them ---- *)

let param p k = Jsonl.member k p
let str p k d = Option.value ~default:d (Option.bind (param p k) Jsonl.to_str)
let int p k d = Option.value ~default:d (Option.bind (param p k) Jsonl.to_int)

let frac s =
  match String.split_on_char '/' s with
  | [ n ] -> Frac.of_int (int_of_string n)
  | [ n; d ] -> Frac.make (int_of_string n) (int_of_string d)
  | _ -> invalid_arg s

let task_of p =
  let n = int p "n" 3 and m = int p "m" 4 and eps = frac (str p "eps" "1/4") in
  match str p "task" "consensus" with
  | "consensus" -> Consensus.binary ~n
  | "relaxed-consensus" -> Consensus.relaxed ~n ~values:[ Value.Int 0; Value.Int 1 ]
  | "aa" -> Approx_agreement.task ~n ~m ~eps
  | "liberal-aa" -> Approx_agreement.liberal ~n ~m ~eps
  | "2set" -> Set_agreement.task ~n ~k:2 ~values:[ Value.Int 0; Value.Int 1; Value.Int 2 ]
  | t -> invalid_arg t

type model = Builtin of Model.t | Term of Algebra.t

let model_of p =
  let s = str p "model" "immediate" in
  match Model.of_string s with
  | Some m -> Builtin m
  | None -> Term (Result.get_ok (Algebra.parse s))

let model_name = function Builtin m -> Model.name m | Term t -> Algebra.to_string t

(* ---- Δ'(σ), step by step ---- *)

let traced_facets ctx op s =
  ctx.one_round_calls <- ctx.one_round_calls + 1;
  span ctx "one_round" (fun () -> Round_op.facets op s)

let cert_bytes key =
  match Cert_store.dir () with
  | None -> 0
  | Some root -> (
      let path =
        Filename.concat (Filename.concat root (String.sub key 0 2)) (key ^ ".cert")
      in
      try (Unix.stat path).Unix.st_size with Unix.Unix_error _ -> 0)

let load_verified ctx ~key ~env ~select =
  match span ctx "Cert_store.load" (fun () -> Cert_store.load key) with
  | None -> None
  | Some sexp -> (
      ctx.bytes_read <- ctx.bytes_read + cert_bytes key;
      match span ctx "Cert.decode" (fun () -> Cert.decode sexp) with
      | Error _ ->
          Cert_store.quarantine key;
          None
      | Ok cert -> (
          match select cert with
          | None ->
              Cert_store.quarantine key;
              None
          | Some v -> (
              match span ctx "Cert.verify" (fun () -> Cert.verify env cert) with
              | Ok () -> Some v
              | Error _ ->
                  Cert_store.quarantine key;
                  None)))

let enumerate ctx ~facets task sigma =
  ctx.enumerations <- ctx.enumerations + 1;
  let taus =
    span ctx "Task.chromatic_output_sets" (fun () -> Task.chromatic_output_sets task sigma)
  in
  let tagged =
    span ctx "tasks.prefilter" (fun () ->
        let zero = Task.delta task sigma in
        List.map (fun tau -> (tau, Complex.mem tau zero)) taus)
  in
  ctx.candidates <- ctx.candidates + List.length taus;
  List.filter_map
    (fun (tau, zero_round) ->
      if zero_round then Some (tau, None)
      else begin
        ctx.hard <- ctx.hard + 1;
        match
          span ctx "Solvability.local_task_solvable" (fun () ->
              Solvability.local_task_solvable ~one_round:facets task ~sigma ~tau)
        with
        | Solvability.Solvable f ->
            ctx.members <- ctx.members + 1;
            Some (tau, Some f)
        | Solvability.Unsolvable -> None
        | Solvability.Undecided -> failwith "local task undecided"
      end)
    tagged

let delta ctx op task sigma =
  span ctx "Closure.delta" @@ fun () ->
  let op_name = Round_op.name op and task_name = task.Task.name in
  let k = String.concat "\x00" [ op_name; task_name; Format.asprintf "%a" Simplex.pp sigma ] in
  if Hashtbl.mem ctx.memo k then Closure.delta ~op task sigma
  else begin
    let facets = traced_facets ctx op in
    let of_members members = Complex.of_facets (List.map fst members) in
    let c =
      if
        Cert_store.enabled () && Round_op.persistent op
        && Cert_registry.known_task task_name
      then
        let key =
          span ctx "Cert.query_key" (fun () ->
              Cert.query_key (Cert.Q_delta { op_name; task_name; sigma }))
        in
        let env =
          {
            Cert.task_of_name = (fun n -> if n = task_name then Some task else None);
            facets_of_op = (fun n -> if n = op_name then Some facets else None);
            protocol_of_model = (fun _ -> None);
          }
        in
        let select = function
          | Cert.Enumeration e
            when e.Cert.op_name = op_name && e.Cert.task_name = task_name
                 && Simplex.equal e.Cert.sigma sigma ->
              Some (of_members e.Cert.members)
          | _ -> None
        in
        match load_verified ctx ~key ~env ~select with
        | Some c -> c
        | None ->
            let members = enumerate ctx ~facets task sigma in
            let sexp =
              span ctx "Cert.encode" (fun () ->
                  Cert.encode (Cert.Enumeration { op_name; task_name; sigma; members }))
            in
            span ctx "Cert_store.save" (fun () -> Cert_store.save ~key sexp);
            ctx.bytes_written <- ctx.bytes_written + cert_bytes key;
            of_members members
      else of_members (enumerate ctx ~facets task sigma)
    in
    Hashtbl.replace ctx.memo k ();
    ctx.populate <- (fun () -> ignore (Closure.delta ~op task sigma)) :: ctx.populate;
    c
  end

(* ---- the compute methods, rendered as Wire renders them ---- *)

let closure ctx p =
  let task = span ctx "tasks.construct" (fun () -> task_of p) in
  let op =
    match model_of p with Builtin m -> Round_op.plain m | Term t -> Round_op.algebra t
  in
  let inputs = span ctx "tasks.construct" (fun () -> Task.input_simplices task) in
  let rows =
    List.map
      (fun sigma ->
        let d' = delta ctx op task sigma in
        let d = span ctx "Task.delta" (fun () -> Task.delta task sigma) in
        let fixed = span ctx "Complex.equal" (fun () -> Complex.equal d' d) in
        let sigma, facets, facets' =
          span ctx "topology.render" (fun () ->
              ( Format.asprintf "%a" Simplex.pp sigma,
                Complex.facet_count d,
                Complex.facet_count d' ))
        in
        ( fixed,
          Jsonl.Obj
            [
              ("sigma", Jsonl.String sigma);
              ("delta_facets", Jsonl.Int facets);
              ("closure_facets", Jsonl.Int facets');
              ("fixed", Jsonl.Bool fixed);
            ] ))
      inputs
  in
  Jsonl.Obj
    [
      ("task", Jsonl.String task.Task.name);
      ("op", Jsonl.String (Round_op.name op));
      ("inputs", Jsonl.Int (List.length inputs));
      ("fixed_point", Jsonl.Bool (List.for_all fst rows));
      ("per_sigma", Jsonl.List (List.map snd rows));
    ]

(* Solvability.decide with its protocol and Δ callbacks traced. *)
let decide ctx ~inputs ~protocol task =
  span ctx "Solvability.decide" (fun () ->
      Solvability.decide ~inputs
        ~protocol:(fun sigma -> span ctx "protocol_complex" (fun () -> protocol sigma))
        ~delta:(fun sigma -> span ctx "Task.delta" (fun () -> Task.delta task sigma))
        ())

(* Solvability.task_in_model, step by step: the stored Solution
   certificate if it verifies, else the search, encoded and saved. *)
let task_in_model ctx m task ~rounds =
  let inputs = Task.input_simplices task in
  let compute () = decide ctx ~inputs ~protocol:(fun sigma -> Model.protocol_complex m sigma rounds) task in
  let task_name = task.Task.name and model_name = Model.name m in
  if not (Cert_store.enabled () && Cert_registry.known_task task_name) then compute ()
  else
    let key =
      span ctx "Cert.query_key" (fun () ->
          Cert.query_key (Cert.Q_solve { model_name; task_name; rounds; inputs }))
    in
    let env =
      {
        Cert.task_of_name = (fun n -> if n = task_name then Some task else None);
        facets_of_op = (fun _ -> None);
        protocol_of_model = (fun n -> if n = model_name then Some (Model.protocol_complex m) else None);
      }
    in
    let select = function
      | Cert.Solution s
        when s.Cert.model_name = model_name && s.Cert.task_name = task_name
             && s.Cert.rounds = rounds
             && List.equal Simplex.equal s.Cert.inputs inputs ->
          if s.Cert.verdict then Option.map (fun f -> Solvability.Solvable f) s.Cert.map
          else Some Solvability.Unsolvable
      | _ -> None
    in
    match load_verified ctx ~key ~env ~select with
    | Some verdict -> verdict
    | None ->
        let verdict = compute () in
        let save verdict map =
          let sexp =
            span ctx "Cert.encode" (fun () ->
                Cert.encode (Cert.Solution { model_name; task_name; rounds; inputs; verdict; map }))
          in
          span ctx "Cert_store.save" (fun () -> Cert_store.save ~key sexp);
          ctx.bytes_written <- ctx.bytes_written + cert_bytes key
        in
        (match verdict with
        | Solvability.Solvable f -> save true (Some f)
        | Solvability.Unsolvable -> save false None
        | Solvability.Undecided -> ());
        verdict

let solvable ctx p =
  let task = span ctx "tasks.construct" (fun () -> task_of p) in
  let rounds = int p "rounds" 1 and model = model_of p in
  let verdict =
    match model with
    | Builtin m -> task_in_model ctx m task ~rounds
    | Term t ->
        decide ctx ~inputs:(Task.input_simplices task)
          ~protocol:(fun sigma -> Algebra.protocol_complex t sigma rounds)
          task
  in
  Jsonl.Obj
    [
      ("task", Jsonl.String task.Task.name);
      ("model", Jsonl.String (model_name model));
      ("rounds", Jsonl.Int rounds);
      ( "verdict",
        Jsonl.String
          (match verdict with
          | Solvability.Solvable _ -> "solvable"
          | Solvability.Unsolvable -> "unsolvable"
          | Solvability.Undecided -> "undecided") );
    ]

let equiv ctx p =
  let term k = Result.get_ok (Algebra.parse (str p k "")) in
  let lhs = term "lhs" and rhs = term "rhs" and n = int p "n" 2 in
  let k = Printf.sprintf "%s|%s|%d" (Algebra.to_string lhs) (Algebra.to_string rhs) n in
  (* First sight in this replay answers from the store or a search,
     as on a fresh daemon; later ones from the verdict memo. *)
  let seen = Hashtbl.mem ctx.equiv_memo k in
  let o = span ctx "Equiv.decide" (fun () -> Equiv.decide ~memo:seen ~n lhs rhs) in
  if not seen then begin
    Hashtbl.replace ctx.equiv_memo k ();
    ctx.populate <- (fun () -> ignore (Equiv.decide ~n lhs rhs)) :: ctx.populate
  end;
  Jsonl.Obj
    [
      ("lhs", Jsonl.String (Algebra.to_string lhs));
      ("rhs", Jsonl.String (Algebra.to_string rhs));
      ("n", Jsonl.Int n);
      ("equivalent", Jsonl.Bool o.Equiv.equivalent);
      ( "probes",
        Jsonl.List
          (List.map
             (fun (pr : Equiv.probe) ->
               Jsonl.Obj
                 [
                   ("probe", Jsonl.String pr.Equiv.label);
                   ("lhs", Jsonl.String pr.Equiv.lhs);
                   ("rhs", Jsonl.String pr.Equiv.rhs);
                   ("agree", Jsonl.Bool (String.equal pr.Equiv.lhs pr.Equiv.rhs));
                 ])
             o.Equiv.probes) );
    ]

let complex_stats ctx p =
  let model = model_of p and n = int p "n" 3 and rounds = int p "rounds" 1 in
  let sigma = Simplex.of_list (List.init n (fun i -> (i + 1, Value.Int (i + 1)))) in
  let c =
    span ctx "protocol_complex" (fun () ->
        match model with
        | Builtin m -> Model.protocol_complex m sigma rounds
        | Term t -> Algebra.protocol_complex t sigma rounds)
  in
  let dim, facets, vertices, simplices =
    span ctx "Complex.counts" (fun () ->
        ( Complex.dim c,
          Complex.facet_count c,
          Complex.vertex_count c,
          Complex.simplex_count c ))
  in
  Jsonl.Obj
    [
      ("model", Jsonl.String (model_name model));
      ("n", Jsonl.Int n);
      ("rounds", Jsonl.Int rounds);
      ("dim", Jsonl.Int dim);
      ("facets", Jsonl.Int facets);
      ("vertices", Jsonl.Int vertices);
      ("simplices", Jsonl.Int simplices);
    ]

(* One request: decode, the memo counters the worker reads around every
   compute request, the method, render.  Returns the reply line and the
   request's wall time; memo population runs after, untimed. *)
let handle ctx ~id (q : Catalogue.query) =
  let line = Loadgen.request_line ~id q in
  ctx.spans.Spans.request <- id;
  let key = Catalogue.key q in
  ctx.requests <- ctx.requests + 1;
  if Hashtbl.mem ctx.seen key then ctx.repeats <- ctx.repeats + 1
  else Hashtbl.replace ctx.seen key ();
  let enumerations () = ctx.enumerations + (Closure.memo_stats ()).Closure.enumerations in
  let enumerations0 = enumerations () in
  let t0 = now () in
  let req = Result.get_ok (span ctx "Wire.decode_request" (fun () -> Wire.decode_request line)) in
  let memo_stats () = ignore (span ctx "Closure.memo_stats" Closure.memo_stats) in
  memo_stats ();
  let p = req.Wire.params in
  let result =
    match req.Wire.meth with
    | "closure" -> closure ctx p
    | "solvable" -> solvable ctx p
    | "equiv" -> equiv ctx p
    | "complex-stats" -> complex_stats ctx p
    | m -> invalid_arg ("not a catalogue method: " ^ m)
  in
  memo_stats ();
  let reply = span ctx "Wire.ok_reply" (fun () -> Wire.ok_reply ~id:req.Wire.id result) in
  let wall = now () -. t0 in
  if enumerations () > enumerations0 then ctx.enumerated <- ctx.enumerated + 1;
  List.iter (fun f -> f ()) (List.rev ctx.populate);
  ctx.populate <- [];
  (reply, wall)

(* ---- the replica's pull path ---- *)

let pull_hook ctx origin key =
  let reply =
    span ctx "Client.rpc cert-pull" (fun () ->
        match Client.connect origin with
        | Error e -> Error e
        | Ok c ->
            Fun.protect
              ~finally:(fun () -> Client.close c)
              (fun () ->
                Client.rpc ~deadline_ms:5000 c ~id:(Jsonl.Int 0) ~meth:"cert-pull"
                  ~params:[ ("key", Jsonl.String key) ]))
  in
  match Result.map (fun r -> (Jsonl.member "found" r, Jsonl.member "cert" r)) reply with
  | Ok (Some (Jsonl.Bool true), Some (Jsonl.String text)) -> (
      match span ctx "Cert_sync.install" (fun () -> Cert_sync.install ~key text) with
      | Ok cert ->
          Cert_store.note_pull ();
          Some (span ctx "Cert.encode" (fun () -> Cert.encode cert))
      | Error _ -> None)
  | _ ->
      Cert_store.note_pull_miss ();
      None

(* ---- per-layer metrics ---- *)

type replay = {
  wall : float;  (** Σ request wall times *)
  spans : Spans.span list;
  ctx : ctx;
}

(* Replay [queries] once with spans [on] or off; [check] sees every reply. *)
let replay (ctx : ctx) ~on ~check queries =
  ctx.spans.Spans.enabled <- on;
  let wall = ref 0. in
  Array.iteri
    (fun id q ->
      let reply, w = handle ctx ~id q in
      wall := !wall +. w;
      check q ~id reply)
    queries;
  { wall = !wall; spans = ctx.spans.Spans.spans; ctx }

type setup = {
  prepare : unit -> ctx;  (** the same starting state for each of the two replays *)
  queries : Catalogue.query array;
}

let metrics ~overhead ~traced ~export_ms =
  let self = Spans.self_times traced.spans in
  let total names =
    List.fold_left (fun acc n -> acc +. Option.value ~default:0. (Hashtbl.find_opt self n)) 0. names
  in
  let wall = traced.wall in
  let share names = 100. *. total names /. wall in
  let per_call_us name =
    let n = Spans.count traced.spans name in
    if n = 0 then 0. else 1e6 *. total [ name ] /. Float.of_int n
  in
  let covered = Hashtbl.fold (fun _ v acc -> acc +. v) self 0. in
  let c = traced.ctx in
  let m name value unit = (name, value, unit) in
  let pct a b = if b = 0 then 0. else 100. *. Float.of_int a /. Float.of_int b in
  [
    m "wire.decode_us" (per_call_us "Wire.decode_request") "us";
    m "wire.render_us" (per_call_us "Wire.ok_reply") "us";
    m "closure.delta_self_share" (share [ "Closure.delta" ]) "%";
    m "closure.memo_stats_us" (per_call_us "Closure.memo_stats") "us";
    m "equiv.decide_share" (share [ "Equiv.decide" ]) "%";
    m "tasks.construct_share" (share [ "tasks.construct" ]) "%";
    m "tasks.candidates_share" (share [ "Task.chromatic_output_sets" ]) "%";
    m "tasks.prefilter_share" (share [ "tasks.prefilter" ]) "%";
    m "tasks.delta_share" (share [ "Task.delta" ]) "%";
    m "tasks.candidates" (Float.of_int c.candidates) "count";
    m "tasks.hard_candidates" (Float.of_int c.hard) "count";
    m "models.one_round_share" (share [ "one_round" ]) "%";
    m "models.one_round_calls" (Float.of_int c.one_round_calls) "count";
    m "models.protocol_complex_share" (share [ "protocol_complex" ]) "%";
    m "solver.search_share" (share [ "Solvability.local_task_solvable" ]) "%";
    m "solver.searches" (Float.of_int c.hard) "count";
    m "solver.member_share" (pct c.members c.hard) "%";
    m "solver.decide_share" (share [ "Solvability.decide" ]) "%";
    m "cert.key_share" (share [ "Cert.query_key" ]) "%";
    m "cert.encode_share" (share [ "Cert.encode" ]) "%";
    m "cert.save_share" (share [ "Cert_store.save" ]) "%";
    m "cert.bytes_written" (Float.of_int c.bytes_written) "bytes";
    m "cert.load_share" (share [ "Cert_store.load" ]) "%";
    m "cert.decode_share" (share [ "Cert.decode" ]) "%";
    m "cert.verify_share" (share [ "Cert.verify" ]) "%";
    m "cert.bytes_read" (Float.of_int c.bytes_read) "bytes";
    m "cert.install_share" (share [ "Cert_sync.install" ]) "%";
    m "cert.export_share" (100. *. export_ms /. 1000. /. wall) "%";
    m "fleet.pull_rpc_share" (share [ "Client.rpc cert-pull" ]) "%";
    m "topology.complex_equal_us" (per_call_us "Complex.equal") "us";
    m "topology.render_share" (share [ "Complex.counts"; "topology.render" ]) "%";
    m "workload.repeat_share" (pct c.repeats c.requests) "%";
    m "workload.enumerated_share" (pct c.enumerated c.requests) "%";
    m "trace.coverage" (100. *. covered /. wall) "%";
    m "trace.overhead" overhead "ratio";
    m "trace.wall_ms" (1000. *. wall) "ms";
  ]

(* A first, discarded replay fills the process-wide caches (model
   one-round tables, interned simplices) so the measured replays start
   alike; then traced, untraced, untraced, traced (so a drift over the
   four cancels), and the overhead is the ratio of the summed wall
   times.  Spans and layer shares come from the last replay. *)
let run ~check ?(export_ms = fun _ -> 0.) setup =
  let once on = replay (setup.prepare ()) ~on ~check setup.queries in
  ignore (once false);
  let t1 = once true in
  let u1 = once false in
  let u2 = once false in
  let t = now () in
  let traced = once true in
  let overhead = (t1.wall +. traced.wall) /. (u1.wall +. u2.wall) in
  (metrics ~overhead ~traced ~export_ms:(export_ms t), traced.spans)

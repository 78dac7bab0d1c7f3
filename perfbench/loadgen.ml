(* The load generator: one process.  A closed loop keeps one request in
   flight on each of its connections, each driven by its own thread: a
   connection sends the next request of the shared list as soon as its
   previous reply arrives. *)

type sample = {
  sent : float;
  received : float;  (** [nan] when no reply arrived *)
  reply : string;  (** the raw reply line, or the transport error *)
}

let request_line ~id (q : Catalogue.query) =
  Jsonl.to_string
    (Jsonl.Obj
       [
         ("id", Jsonl.Int id);
         ("method", Jsonl.String q.meth);
         ("params", Jsonl.Obj q.params);
       ])

(* Sends every line once over [connections] connections; returns the
   samples by request index and the start and end of the loop. *)
let closed_loop ~connections addr (lines : string array) =
  let n = Array.length lines in
  let samples = Array.make n { sent = nan; received = nan; reply = "" } in
  let next = Atomic.make 0 in
  let conns =
    List.init connections (fun _ ->
        match Client.connect addr with Ok c -> c | Error e -> failwith ("connect: " ^ e))
  in
  Fun.protect ~finally:(fun () -> List.iter Client.close conns) @@ fun () ->
  let rec drive c =
    let i = Atomic.fetch_and_add next 1 in
    if i < n then begin
      let sent = Unix.gettimeofday () in
      let r =
        match Client.send_line c lines.(i) with
        | Error e -> Error e
        | Ok () -> Client.recv_line c
      in
      let received = Unix.gettimeofday () in
      samples.(i) <-
        (match r with
        | Ok reply -> { sent; received; reply }
        | Error e -> { sent; received = nan; reply = e });
      drive c
    end
  in
  let start = Unix.gettimeofday () in
  List.iter Thread.join (List.map (Thread.create drive) conns);
  (samples, start, Unix.gettimeofday ())

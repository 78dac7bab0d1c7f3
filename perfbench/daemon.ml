(* [speedup serve] daemons as child processes: spawned with the shipped
   defaults, a store directory and a Unix socket inside the run's work
   directory, and stopped (and reaped) before the run ends. *)

type t = { pid : int; name : string; sock : string; store : string }

let live : (int, unit) Hashtbl.t = Hashtbl.create 4

let addr t = Server.Unix_path t.sock

(* The daemon's environment: ours minus any store or pool override, so
   every daemon runs with the defaults a user gets. *)
let env store =
  Unix.environment ()
  |> Array.to_list
  |> List.filter (fun kv ->
         not
           (String.starts_with ~prefix:"CERT_CACHE_DIR=" kv
           || String.starts_with ~prefix:"SPEEDUP_" kv))
  |> List.cons ("CERT_CACHE_DIR=" ^ store)
  |> Array.of_list

let spawn ~exe ~dir ~name ?store ?peers ?access_log () =
  let sock = Filename.concat dir (name ^ ".sock") in
  let store =
    match store with Some s -> s | None -> Filename.concat dir (name ^ "-store")
  in
  let args =
    [ exe; "serve"; "--socket"; sock ]
    @ (match peers with Some p -> [ "--peers"; "unix:" ^ p.sock ] | None -> [])
    @ match access_log with Some f -> [ "--access-log"; f ] | None -> []
  in
  let err =
    Unix.openfile (Filename.concat dir (name ^ ".log"))
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644
  in
  let pid =
    Unix.create_process_env exe (Array.of_list args) (env store) Unix.stdin err err
  in
  Unix.close err;
  Hashtbl.replace live pid ();
  { pid; name; sock; store }

(* Polls every 0.1 ms, for up to 5 s, so a set-up time measured up to
   the first connection is not rounded up to a retry delay. *)
let connect t =
  let give_up = Unix.gettimeofday () +. 5. in
  let rec go () =
    match Client.connect (addr t) with
    | Ok c -> c
    | Error e when Unix.gettimeofday () > give_up ->
        failwith (Printf.sprintf "daemon %s: %s" t.name e)
    | Error _ ->
        Unix.sleepf 0.0001;
        go ()
  in
  go ()

let rpc c meth =
  match Client.rpc c ~id:(Jsonl.String meth) ~meth ~params:[] with
  | Ok v -> v
  | Error e -> failwith (Printf.sprintf "%s: %s" meth e)

(* Peak resident memory (VmHWM) in MB. *)
let peak_rss_mb t =
  let line =
    In_channel.with_open_text (Printf.sprintf "/proc/%d/status" t.pid)
      In_channel.input_all
    |> String.split_on_char '\n'
    |> List.find (String.starts_with ~prefix:"VmHWM:")
  in
  Scanf.sscanf line "VmHWM: %d kB" (fun kb -> Float.of_int kb /. 1024.)

(* Bytes of certificate files in the daemon's store. *)
let store_mb t =
  let rec walk path =
    match Unix.lstat path with
    | { Unix.st_kind = Unix.S_DIR; _ } ->
        Array.fold_left
          (fun acc e -> acc + walk (Filename.concat path e))
          0 (Sys.readdir path)
    | { Unix.st_kind = Unix.S_REG; st_size; _ } when Filename.check_suffix path ".cert" ->
        st_size
    | _ -> 0
    | exception Unix.Unix_error (Unix.ENOENT, _, _) -> 0
  in
  Float.of_int (walk t.store) /. 1e6

let reap pid =
  (try ignore (Unix.waitpid [] pid) with Unix.Unix_error (Unix.ECHILD, _, _) -> ());
  Hashtbl.remove live pid

(* Drain through the protocol and wait for the process to exit. *)
let stop t =
  (match Client.connect (addr t) |> Result.to_option with
  | Some c ->
      ignore (Client.rpc c ~id:(Jsonl.String "stop") ~meth:"shutdown" ~params:[]);
      Client.close c
  | None -> (try Unix.kill t.pid Sys.sigterm with Unix.Unix_error _ -> ()));
  reap t.pid

let kill_all () =
  Hashtbl.iter (fun pid () -> try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ()) live;
  List.iter reap (List.of_seq (Hashtbl.to_seq_keys live))

let rec remove_tree path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
      Array.iter (fun e -> remove_tree (Filename.concat path e)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

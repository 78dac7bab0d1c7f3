(* In-memory spans for the traced replay.  A span wraps one call into a
   layer's public function; spans nest by call order on the main domain
   (calls from other domains run untraced inside their caller's span),
   so a span's self time is its duration minus its direct children's. *)

type span = {
  id : int;
  name : string;
  parent : int;  (** -1 for a top-level span *)
  request : int;
  start : float;
  stop : float;
}

type t = {
  clock : unit -> float;
  mutable enabled : bool;
  mutable request : int;
  mutable next : int;
  mutable stack : int list;
  mutable spans : span list;  (** most recent first *)
}

let create clock =
  { clock; enabled = false; request = 0; next = 0; stack = []; spans = [] }

let with_span t name f =
  if not (t.enabled && Domain.is_main_domain ()) then f ()
  else begin
    let id = t.next in
    t.next <- id + 1;
    let parent = match t.stack with p :: _ -> p | [] -> -1 in
    t.stack <- id :: t.stack;
    let start = t.clock () in
    Fun.protect
      ~finally:(fun () ->
        let stop = t.clock () in
        t.stack <- List.tl t.stack;
        t.spans <- { id; name; parent; request = t.request; start; stop } :: t.spans)
      f
  end

let duration s = s.stop -. s.start

(* Self time per span name, summed: each span's duration minus the
   durations of the spans whose parent it is. *)
let self_times spans =
  let children = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace children s.parent
          (duration s +. Option.value ~default:0. (Hashtbl.find_opt children s.parent)))
    spans;
  let totals = Hashtbl.create 32 in
  List.iter
    (fun s ->
      let self =
        duration s -. Option.value ~default:0. (Hashtbl.find_opt children s.id)
      in
      Hashtbl.replace totals s.name
        (self +. Option.value ~default:0. (Hashtbl.find_opt totals s.name)))
    spans;
  totals

let count spans name = List.length (List.filter (fun s -> s.name = name) spans)

(* One JSON line per span, in start order. *)
let to_jsonl oc spans =
  List.iter
    (fun s ->
      output_string oc
        (Jsonl.to_string
           (Jsonl.Obj
              [
                ("id", Jsonl.Int s.id);
                ("name", Jsonl.String s.name);
                ("parent", Jsonl.Int s.parent);
                ("request", Jsonl.Int s.request);
                ("start_us", Jsonl.Float (s.start *. 1e6));
                ("stop_us", Jsonl.Float (s.stop *. 1e6));
              ]));
      output_char oc '\n')
    (List.rev spans)

(* The reply oracle.  A reply to a catalogue query must be
   byte-identical to every other reply to that query in the run, to the
   golden digest recorded for it, and, where the query hits a result of
   the paper, agree with that result:
   - Cor. 1: the IIS closure of consensus is a fixed point;
   - Claim 2: at n = 2 the IIS closure of ε-AA is (3ε)-AA, checked per
     input simplex as closure facets of ε-AA = Δ facets of (3ε)-AA;
   - Cor. 3: ε-AA is solvable in t IIS rounds iff t ≥ ⌈log₃ 1/ε⌉ at
     n = 2 and t ≥ ⌈log₂ 1/ε⌉ at n ≥ 3 (and consensus never is). *)

type t = {
  golden : (string, string) Hashtbl.t;  (** query key -> MD5 of the reply body *)
  first : (string, string * Jsonl.t) Hashtbl.t;  (** key -> body, result *)
  checked_pairs : (string, unit) Hashtbl.t;
}

let create golden =
  { golden; first = Hashtbl.create 64; checked_pairs = Hashtbl.create 8 }

let load_golden path =
  let tbl = Hashtbl.create 64 in
  (match Jsonl.of_string (In_channel.with_open_text path In_channel.input_all) with
  | Ok (Jsonl.Obj fields) ->
      List.iter
        (function k, Jsonl.String d -> Hashtbl.replace tbl k d | _ -> ())
        fields
  | Ok _ | Error _ -> failwith ("malformed golden file " ^ path));
  tbl

(* A reply line minus its leading id field: what every path must
   reproduce byte for byte. *)
let body ~id line =
  let prefix = "{\"id\": " ^ Jsonl.to_string id ^ ", " in
  let lp = String.length prefix in
  if String.length line >= lp && String.sub line 0 lp = prefix then
    Some (String.sub line lp (String.length line - lp))
  else None

let digest body = Digest.to_hex (Digest.string body)

let param q k = List.assoc_opt k q.Catalogue.params
let str q k = match param q k with Some (Jsonl.String s) -> Some s | _ -> None
let int q k = match param q k with Some (Jsonl.Int n) -> Some n | _ -> None
let iis q = match str q "model" with None | Some "immediate" -> true | Some _ -> false

let frac s =
  match String.split_on_char '/' s with
  | [ a ] -> (int_of_string a, 1)
  | [ a; b ] -> (int_of_string a, int_of_string b)
  | _ -> invalid_arg s

(* Cor. 3: the least t with base^t · ε ≥ 1. *)
let aa_rounds ~n eps =
  let a, b = frac eps in
  let base = if n = 2 then 3 else 2 in
  let rec go t pow = if pow * a >= b then t else go (t + 1) (pow * base) in
  go 0 1

let rec gcd a b = if b = 0 then a else gcd b (a mod b)

(* The (3ε)-AA query Claim 2 pairs with an IIS ε-AA closure at n = 2. *)
let triple q =
  match (q.Catalogue.meth, str q "task", int q "n", int q "m", str q "eps") with
  | "closure", Some "aa", Some 2, Some m, Some eps when iis q ->
      let a, b = frac eps in
      let a = 3 * a in
      let three = if a >= b then "1" else
          let g = gcd a b in
          if b / g = 1 then string_of_int (a / g)
          else Printf.sprintf "%d/%d" (a / g) (b / g)
      in
      Some (Catalogue.closure ~m ~eps:three "aa" 2)
  | _ -> None

let field k r = Jsonl.member k r

let paper_check q result =
  let bool k = Option.bind (field k result) Jsonl.to_bool in
  let verdict () = Option.bind (field "verdict" result) Jsonl.to_str in
  match (q.Catalogue.meth, str q "task", int q "n") with
  | "closure", Some "consensus", _ when iis q ->
      if bool "fixed_point" = Some true then Ok ()
      else Error "Cor. 1: the IIS closure of consensus is not a fixed point"
  | "solvable", Some "consensus", Some n when iis q && n >= 2 ->
      if verdict () = Some "unsolvable" then Ok ()
      else Error "consensus reported solvable"
  | "solvable", Some "aa", Some n when iis q -> (
      match (str q "eps", int q "rounds") with
      | Some eps, Some rounds ->
          let expect = if rounds >= aa_rounds ~n eps then "solvable" else "unsolvable" in
          if verdict () = Some expect then Ok ()
          else Error (Printf.sprintf "Cor. 3: expected %s" expect)
      | _ -> Ok ())
  | _ -> Ok ()

let rows result =
  match field "per_sigma" result with
  | Some (Jsonl.List rows) ->
      List.filter_map
        (fun r ->
          match (field "sigma" r, field "delta_facets" r, field "closure_facets" r) with
          | Some (Jsonl.String s), Some (Jsonl.Int d), Some (Jsonl.Int c) -> Some (s, (d, c))
          | _ -> None)
        rows
  | _ -> []

(* Claim 2 on every catalogue pair whose two replies have been seen. *)
let claim2 t =
  Array.fold_left
    (fun acc q ->
      match (acc, triple q) with
      | Error _, _ | _, None -> acc
      | Ok (), Some q3 -> (
          let k = Catalogue.key q and k3 = Catalogue.key q3 in
          match (Hashtbl.find_opt t.first k, Hashtbl.find_opt t.first k3) with
          | Some (_, r), Some (_, r3) when not (Hashtbl.mem t.checked_pairs k) ->
              Hashtbl.replace t.checked_pairs k ();
              let base = rows r and three = rows r3 in
              if
                base <> []
                && List.length base = List.length three
                && List.for_all
                     (fun (s, (_, closure)) ->
                       match List.assoc_opt s three with
                       | Some (delta3, _) -> delta3 = closure
                       | None -> false)
                     base
              then Ok ()
              else Error ("Claim 2 fails for " ^ k)
          | _ -> Ok ()))
    (Ok ()) Catalogue.all

(* [check t q ~id line]: [Ok ()] or the reason the reply is wrong. *)
let check t q ~id line =
  let k = Catalogue.key q in
  match body ~id line with
  | None -> Error "reply does not echo the request id"
  | Some b when String.starts_with ~prefix:"\"ok\": false" b -> Error ("error reply: " ^ b)
  | Some b -> (
      match Hashtbl.find_opt t.first k with
      | Some (b0, _) ->
          if String.equal b b0 then Ok ()
          else Error "differs from an earlier reply to the same query"
      | None -> (
          match Hashtbl.find_opt t.golden k with
          | None -> Error "no golden digest for this query"
          | Some d when d <> digest b -> Error "differs from the golden reply"
          | Some _ -> (
              match Jsonl.of_string line with
              | Ok reply -> (
                  let result = Option.value ~default:Jsonl.Null (field "result" reply) in
                  match paper_check q result with
                  | Error _ as e -> e
                  | Ok () ->
                      Hashtbl.replace t.first k (b, result);
                      claim2 t)
              | Error msg -> Error ("unparseable reply: " ^ msg))))

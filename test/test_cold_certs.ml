(* Cold certificates are byte-identical to the recorded ones: each case
   derives its answers into an empty store and compares an MD5 over the
   sorted (key, bytes) pairs of the store with a digest recorded before
   the local-task CSPs were compiled from shared Δ(σ) frames.  Any
   change to a verdict, a witness map or the encoding shows here. *)

let store_digest dir =
  Cert_store.set_dir (Some dir);
  Cert_store.entries ()
  |> List.map (fun (key, path) ->
         (key, In_channel.with_open_bin path In_channel.input_all))
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  |> List.concat_map (fun (key, bytes) -> [ key; "\x00"; bytes; "\x00" ])
  |> String.concat "" |> Digest.string |> Digest.to_hex

let cold ~entries ~digest derive () =
  let dir = Test_cert.mk_temp_dir () in
  Fun.protect
    ~finally:(fun () ->
      Cert_store.unset_dir ();
      Closure.reset_memo ();
      Test_cert.rm_rf dir)
  @@ fun () ->
  Cert_store.set_dir (Some dir);
  Closure.reset_memo ();
  derive ();
  Alcotest.(check int) "entries" entries (List.length (Cert_store.entries ()));
  Alcotest.(check string) "store digest" digest (store_digest dir)

let closure task () =
  let op = Round_op.plain Model.Immediate in
  List.iter (fun sigma -> ignore (Closure.delta ~op task sigma)) (Task.input_simplices task)

let aa ~n ~m = Approx_agreement.task ~n ~m ~eps:(Frac.make 1 m)

let suite =
  ( "cold_certs",
    [
      Alcotest.test_case "closure aa n=2 m=4 ε=1/4" `Quick
        (cold ~entries:35 ~digest:"8e6260ff23b94e01be2d115d7c941a4e"
           (closure (aa ~n:2 ~m:4)));
      Alcotest.test_case "closure aa n=3 m=2 ε=1/2" `Quick
        (cold ~entries:63 ~digest:"1e0525e7a535aff029973e1e7c3e4dbd"
           (closure (aa ~n:3 ~m:2)));
      Alcotest.test_case "solve aa n=2 m=4 ε=1/4 rounds=2" `Quick
        (cold ~entries:1 ~digest:"2c9b3ace74d7e4ccd1e825c8de80adfe" (fun () ->
             ignore
               (Solvability.task_in_model Model.Immediate (aa ~n:2 ~m:4) ~rounds:2)));
    ] )

(* Tests for the empirical liveness classifier: every TM must land in its
   textbook class, with the right witness kind. *)

open Core

let check = Alcotest.(check bool)

let classify name =
  Liveness_class.classify (Registry.find_exn name)

let class_tests =
  let expect name cls =
    Alcotest.test_case (Printf.sprintf "%s is %s" name
        (Liveness_class.cls_to_string cls)) `Slow (fun () ->
        let r = classify name in
        if r.Liveness_class.cls <> cls then
          Alcotest.failf "%s classified %s (%s)" name
            (Liveness_class.cls_to_string r.Liveness_class.cls)
            r.Liveness_class.evidence)
  in
  [
    expect "tl-lock" Liveness_class.Blocking;
    expect "tl2-clock" Liveness_class.Blocking;
    expect "norec" Liveness_class.Blocking;
    expect "pram-local" Liveness_class.Wait_free;
    expect "dstm" Liveness_class.Obstruction_free;
    expect "candidate" Liveness_class.Lock_free;
    expect "llsc-candidate" Liveness_class.Lock_free;
    (* si-clock never aborts and never stalls in the probes; its install
       retries are contention-bounded, so the observational class is
       wait-free *)
    expect "si-clock" Liveness_class.Wait_free;
    (* a transaction running solo aborts on a suspended enemy's lock *)
    expect "lp-progressive" Liveness_class.Blocking;
    (* updaters abort under fair contention, but the adversary cannot
       keep both from committing *)
    expect "pwf-readers" Liveness_class.Lock_free;
  ]

let probe_tests =
  [
    Alcotest.test_case "solo progress: tl-lock stalls" `Quick (fun () ->
        match Liveness_class.solo_progress (Registry.find_exn "tl-lock") with
        | Liveness_class.Stalls _ -> ()
        | _ -> Alcotest.fail "expected a stall");
    Alcotest.test_case "solo progress: dstm always finishes" `Quick
      (fun () ->
        check "ok" true
          (Liveness_class.solo_progress (Registry.find_exn "dstm")
          = Liveness_class.Solo_ok));
    Alcotest.test_case "solo progress: tl2 aborts solo" `Quick (fun () ->
        match Liveness_class.solo_progress (Registry.find_exn "tl2-clock") with
        | Liveness_class.Solo_abort _ -> ()
        | _ -> Alcotest.fail "expected a solo abort");
    Alcotest.test_case "adversary finds dstm's livelock" `Slow (fun () ->
        Alcotest.(check (option int))
          "survives the whole horizon" (Some 300)
          (Liveness_class.find_livelock (Registry.find_exn "dstm")));
    Alcotest.test_case "adversary cannot starve the candidate" `Slow
      (fun () ->
        check "not found" true
          (Liveness_class.find_livelock (Registry.find_exn "candidate")
          = None));
    Alcotest.test_case "adversary cannot starve si-clock" `Slow (fun () ->
        check "not found" true
          (Liveness_class.find_livelock (Registry.find_exn "si-clock")
          = None));
  ]

(* the live-cursor adversary against the replay-per-decision oracle, on
   every TM, at horizons around each boundary the probe can stop on *)
let oracle_tests =
  List.map
    (fun impl ->
      let name = Registry.name impl in
      Alcotest.test_case (name ^ ": live cursor = replay oracle") `Slow
        (fun () ->
          List.iter
            (fun horizon ->
              Alcotest.(check (option int))
                (Printf.sprintf "%s at horizon %d" name horizon)
                (Livelock_ref.find_livelock ~horizon impl)
                (Liveness_class.find_livelock ~horizon impl))
            [ 0; 1; 2; 3; 5; 8; 13; 50; 120; 299; 300; 301; 450 ]))
    Registry.all

let () =
  Alcotest.run "probe"
    [
      ("classes", class_tests);
      ("probes", probe_tests);
      ("adversary oracle", oracle_tests);
    ]

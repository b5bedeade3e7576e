(* Tests for the empirical liveness classifier: every TM must land in its
   textbook class, with the right witness kind. *)

open Core

let check = Alcotest.(check bool)

(* the agreement law's liveness row: the classifier lands every TM in
   exactly the class its contract declares *)
let class_tests =
  List.map
    (fun impl ->
      let name = Registry.name impl
      and cls = (Contract_law.contract impl).Tm_intf.liveness in
      Alcotest.test_case
        (Printf.sprintf "%s is %s" name (Liveness_class.cls_to_string cls))
        `Slow
        (fun () ->
          let r = Liveness_class.classify impl in
          if r.Liveness_class.cls <> cls then
            Alcotest.failf "%s classified %s (%s)" name
              (Liveness_class.cls_to_string r.Liveness_class.cls)
              r.Liveness_class.evidence))
    Registry.all

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

(* The probe law: for every TM and every entry of the spec table, the
   scan yields exactly the depths 0..n of the enemy's solo run, each
   point's schedule is [prefix @ [Steps (enemy, k); Until_done probe]],
   and [Sim.replay] of that schedule from C0 gives the point's outcome,
   judged here by the replay's history; for the critical-step entries it
   also gives the same read. *)
let entries impl =
  let lint8 = { Lint.default with Lint.horizon = 8 } in
  [
    ("liveness and verdict", Liveness_class.suspended_enemy, None);
    ("T-E conflicting", Progress.entry ~disjoint:false, None);
    ("T-E disjoint", Progress.entry ~disjoint:true, None);
    ("pwf", Progress_lint.reader_probe Lint.default, None);
    ("pwf at horizon 8", Progress_lint.reader_probe lint8, None);
    ("figure-consistency", Figure_lint.stall_probe Lint.default, None);
    ("figure-consistency at horizon 8", Figure_lint.stall_probe lint8, None);
    ( "s1",
      Pcl_critical_step.entry ~prefix:[] ~writer:1 ~reader:3,
      Some (Tid.v 3, Pcl_txns.b1) );
  ]
  @
  match Pcl_constructions.build impl with
  | Ok c ->
      [
        ( "s2",
          Pcl_critical_step.entry ~prefix:(Pcl_constructions.alpha1 c)
            ~writer:2 ~reader:5,
          Some (Tid.v 5, Pcl_txns.b2) );
      ]
  | Error _ -> []

let replayed_outcome (e : Solo_probe.entry) (r : Sim.result) =
  let tid =
    (List.find (fun s -> s.Static_txn.pid = e.probe) e.specs).Static_txn.tid
  in
  if History.committed r.Sim.history tid then Solo_probe.Commit
  else if History.aborted r.Sim.history tid then Solo_probe.Abort
  else Solo_probe.Unfinished r.Sim.report.Schedule.stop

let check_entry impl (what, (e : Solo_probe.entry), read) =
  let replay schedule =
    let outcomes = Hashtbl.create 16 in
    let sim =
      Sim.replay ~budget:e.budget (Static_txn.setup e.specs impl outcomes)
        schedule
    in
    { Pcl_harness.sim; outcomes }
  in
  let scan = Solo_probe.scan impl e in
  let solo = replay (e.prefix @ [ Schedule.Until_done e.enemy ]) in
  Alcotest.(check int)
    (what ^ ": n is the enemy's solo length")
    (solo.Pcl_harness.sim.Sim.steps_of e.enemy)
    scan.Solo_probe.n;
  let points = List.of_seq (Solo_probe.points scan) in
  Alcotest.(check (list int))
    (what ^ ": depths 0..n")
    (List.init (scan.Solo_probe.n + 1) Fun.id)
    (List.map (fun (p : Solo_probe.point) -> p.k) points);
  List.iter
    (fun (p : Solo_probe.point) ->
      let at = Printf.sprintf "%s at k = %d" what p.k in
      check (at ^ ": schedule") true
        (p.schedule
        = e.prefix
          @ [ Schedule.Steps (e.enemy, p.k); Schedule.Until_done e.probe ]);
      let r = replay p.schedule in
      check (at ^ ": outcome") true
        (replayed_outcome e r.Pcl_harness.sim = p.outcome);
      match read with
      | None -> ()
      | Some (tid, item) ->
          check (at ^ ": read") true
            (Pcl_harness.read_of r tid item
            = Pcl_harness.read_of
                { Pcl_harness.sim = p.run; outcomes = p.outcomes }
                tid item))
    points

let law_tests =
  List.map
    (fun impl ->
      Alcotest.test_case
        (Registry.name impl ^ ": every point = replay of its schedule")
        `Quick (fun () -> List.iter (check_entry impl) (entries impl)))
    Registry.all

(* dstm whose probes' reads raise: every reading takes the crash for a
   failure, never for a commit *)
module Crashing_probes : Tm_intf.S = struct
  let name = "crashing-probes"
  let describe = "dstm whose probe transactions crash on their first read"
  let contract = Dstm_tm.contract

  type t = Dstm_tm.t

  let create = Dstm_tm.create

  type ctx = { inner : Dstm_tm.ctx; tid : Tid.t }

  let begin_txn t ~pid ~tid = { inner = Dstm_tm.begin_txn t ~pid ~tid; tid }

  let read c x =
    if List.mem (Tid.to_int c.tid) [ 3; 11; 23; 51; 52 ] then
      failwith "the probe crashed"
    else Dstm_tm.read c.inner x

  let write c = Dstm_tm.write c.inner
  let try_commit c = Dstm_tm.try_commit c.inner
  let abort c = Dstm_tm.abort c.inner
end

let test_crash_is_no_commit () =
  let impl = (module Crashing_probes : Tm_intf.S) in
  check "liveness: a stall" true
    (Liveness_class.solo_progress impl = Liveness_class.Stalls 0);
  List.iter
    (fun disjoint ->
      let p = Progress.run impl ~disjoint in
      Alcotest.(check int) "T-E: every point stalls" p.Progress.points
        p.Progress.stalls)
    [ false; true ];
  check "pwf: the reader stalls" true
    (Progress_lint.reader_scan Lint.default impl
    = Progress_lint.Reader_stalls 0);
  (match Pcl_constructions.build impl with
  | Error (Pcl_constructions.Crash _) -> ()
  | _ -> Alcotest.fail "the critical-step search must report the crash");
  match (Pcl_verdict.assess impl).Pcl_verdict.liveness with
  | Pcl_verdict.Violated why ->
      Alcotest.(check string) "verdict: the exception"
        (Printexc.to_string (Failure "the probe crashed")) why
  | Pcl_verdict.Holds -> Alcotest.fail "verdict's L leg must not hold"

(* The fiber law: no world is dropped with a process suspended in it.
   OCaml frees a fiber's stack only when the fiber returns or raises, so
   every site that drops a world releases it ([Scheduler.release]), and
   after each of these the count of live fibers is back where it
   started. *)
let fibers_return what f =
  let before = Scheduler.live_fibers () in
  f ();
  Alcotest.(check int) (what ^ ": live fibers") before
    (Scheduler.live_fibers ())

let fiber_tests =
  [
    Alcotest.test_case "the stock sweeps end every fiber" `Quick (fun () ->
        List.iter
          (fun name ->
            fibers_return name (fun () ->
                ignore (Explore_sweep.run ~por:true (Registry.find_exn name))))
          [ "dstm"; "tl-lock" ]);
    Alcotest.test_case "a solo-probe scan ends every fiber" `Quick (fun () ->
        fibers_return "scan" (fun () ->
            let scan =
              Solo_probe.scan (Registry.find_exn "tl-lock")
                Liveness_class.suspended_enemy
            in
            Seq.iter ignore (Solo_probe.points scan)));
  ]

let () =
  Alcotest.run "probe"
    [
      ("classes", class_tests);
      ("probes", probe_tests);
      ("adversary oracle", oracle_tests);
      ("probe law", law_tests);
      ("fiber law", fiber_tests);
      ( "readings",
        [
          Alcotest.test_case "a crashed probe is never a commit" `Quick
            test_crash_is_no_commit;
        ] );
    ]

(* Behavioural tests for the five TM implementations: common contract
   tests for every TM, then per-TM tests pinning down the specific
   mechanism (locks, locators + enemy aborts, snapshots + helping,
   process-local views, optimistic per-item CAS). *)

open Core

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let x = Item.v "x"
let y = Item.v "y"

let spec tid pid reads writes =
  { Static_txn.tid = Tid.v tid; pid; reads;
    writes = List.map (fun (i, v) -> (i, Value.int v)) writes }

let setup impl specs outcomes : Sim.setup =
 fun mem recorder ->
  let handle =
    Txn_api.instantiate impl mem recorder ~items:(Static_txn.items_of specs)
  in
  List.map
    (fun s -> (s.Static_txn.pid, Static_txn.program handle s ~outcomes))
    specs

let run ?(budget = 3_000) impl specs schedule =
  let outcomes = Hashtbl.create 8 in
  let r = Sim.replay ~budget (setup impl specs outcomes) schedule in
  (r, outcomes)

(* the run's steps, for the DAP and liveness detectors *)
let entries (r : Sim.result) = Access_log.whole (Memory.log r.Sim.mem)

let read_of outcomes tid item =
  Option.bind (Hashtbl.find_opt outcomes (Tid.v tid)) (fun o ->
      Static_txn.read_value o item)

let status outcomes tid =
  match Hashtbl.find_opt outcomes (Tid.v tid) with
  | Some o -> o.Static_txn.status
  | None -> Static_txn.Unstarted

(* ------------------------------------------------------------------ *)
(* the common contract, instantiated for every TM *)

let common_tests impl =
  let (module M : Tm_intf.S) = impl in
  [
    Alcotest.test_case (M.name ^ ": solo txn commits") `Quick (fun () ->
        let specs = [ spec 1 1 [ x ] [ (y, 1) ] ] in
        let r, outcomes = run impl specs [ Schedule.Until_done 1 ] in
        check "committed" true (status outcomes 1 = Static_txn.Committed);
        check "reads initial" true (read_of outcomes 1 x = Some (Value.int 0));
        check "completed" true (r.Sim.report.Schedule.stop = Schedule.Completed));
    Alcotest.test_case (M.name ^ ": read own write") `Quick (fun () ->
        (* write then read the same item inside one transaction *)
        let outcomes = Hashtbl.create 4 in
        let got = ref None in
        let setup mem recorder =
          let handle = Txn_api.instantiate impl mem recorder ~items:[ x ] in
          [ (1,
             fun () ->
               let txn = handle.Txn_api.begin_txn ~pid:1 ~tid:(Tid.v 1) in
               (match Txn_api.write txn x (Value.int 42) with
               | Ok () -> got := Result.to_option (Txn_api.read txn x)
               | Error () -> ());
               ignore (Txn_api.try_commit txn)) ]
        in
        ignore (Sim.replay ~budget:3_000 setup [ Schedule.Until_done 1 ]);
        ignore outcomes;
        check "sees own write" true (!got = Some (Value.int 42)));
    Alcotest.test_case (M.name ^ ": solo read-modify-write") `Quick (fun () ->
        let specs = [ spec 1 1 [ x ] [ (x, 5) ] ] in
        let _, outcomes = run impl specs [ Schedule.Until_done 1 ] in
        check "committed" true (status outcomes 1 = Static_txn.Committed));
    Alcotest.test_case (M.name ^ ": histories are well-formed") `Quick
      (fun () ->
        let specs =
          [ spec 1 1 [ x ] [ (x, 1) ]; spec 2 2 [ x ] [ (x, 2) ] ]
        in
        let r, _ =
          run impl specs
            [ Schedule.Steps (1, 4); Schedule.Until_done 2;
              Schedule.Until_done 1 ]
        in
        match History.well_formed r.Sim.history with
        | Ok () -> ()
        | Error e -> Alcotest.fail e);
    Alcotest.test_case (M.name ^ ": sequential committed history is legal")
      `Quick (fun () ->
        let specs =
          [ spec 1 1 [] [ (x, 1) ]; spec 2 2 [ x ] [ (y, 2) ] ]
        in
        let r, outcomes =
          run impl specs [ Schedule.Until_done 1; Schedule.Until_done 2 ]
        in
        check "both committed" true
          (status outcomes 1 = Static_txn.Committed
          && status outcomes 2 = Static_txn.Committed);
        (* pram is the exception: it never propagates across processes *)
        if M.name <> "pram-local" then
          check "T2 sees T1" true (read_of outcomes 2 x = Some (Value.int 1));
        check "well-formed" true (Result.is_ok (History.well_formed r.Sim.history)));
  ]

(* ------------------------------------------------------------------ *)

let tl_tests =
  let impl = (module Tl_tm : Tm_intf.S) in
  [
    Alcotest.test_case "conflicting racer aborts on validation" `Quick
      (fun () ->
        (* T1 reads x early; T2 commits a write to x; T1's commit must
           fail validation *)
        let specs =
          [ spec 1 1 [ x ] [ (y, 1) ]; spec 2 2 [] [ (x, 9) ] ]
        in
        let _, outcomes =
          run impl specs
            [ Schedule.Steps (1, 1) (* T1 reads x *);
              Schedule.Until_done 2; Schedule.Until_done 1 ]
        in
        check "T2 committed" true (status outcomes 2 = Static_txn.Committed);
        check "T1 aborted" true (status outcomes 1 = Static_txn.Aborted));
    Alcotest.test_case "locks are all released at the end" `Quick (fun () ->
        (* behavioural check: after T1 (commits or aborts) and T2 finish,
           a third transaction over the same items must be able to lock
           and commit solo — impossible if any lock leaked *)
        let specs =
          [ spec 1 1 [ x ] [ (x, 1); (y, 1) ]; spec 2 2 [ x ] [ (x, 2) ];
            spec 3 3 [ x; y ] [ (x, 7); (y, 7) ] ]
        in
        let r, outcomes =
          run impl specs
            [ Schedule.Steps (1, 1); Schedule.Until_done 2;
              Schedule.Until_done 1; Schedule.Until_done 3 ]
        in
        check "completed" true (r.Sim.report.Schedule.stop = Schedule.Completed);
        check "T3 commits over the same items" true
          (status outcomes 3 = Static_txn.Committed));
    Alcotest.test_case "suspended lock holder blocks a conflicting commit"
      `Quick (fun () ->
        (* run T2 up to the point it holds x's lock, then let T1 try *)
        let specs =
          [ spec 1 1 [] [ (x, 1) ]; spec 2 2 [] [ (x, 2); (y, 2) ] ]
        in
        let solo, _ = run impl specs [ Schedule.Until_done 2 ] in
        let n = solo.Sim.steps_of 2 in
        let blocked = ref false in
        (* find some suspension point where T1 cannot finish *)
        for k = 1 to n - 1 do
          let r, _ =
            run ~budget:300 impl specs
              [ Schedule.Steps (2, k); Schedule.Until_done 1 ]
          in
          match r.Sim.report.Schedule.stop with
          | Schedule.Budget_exhausted { Schedule.stalled_pid = 1; _ } ->
              blocked := true
          | _ -> ()
        done;
        check "blocking observed" true !blocked);
    Alcotest.test_case "disjoint txns never contend (strict DAP)" `Quick
      (fun () ->
        let specs =
          [ spec 1 1 [ x ] [ (x, 1) ]; spec 2 2 [ y ] [ (y, 2) ] ]
        in
        let r, _ =
          run impl specs [ Schedule.Until_done 1; Schedule.Until_done 2 ]
        in
        check "strict DAP" true
          (Strict_dap.holds ~data_sets:(Static_txn.data_sets specs) (entries r)));
    Alcotest.test_case "all interleavings strictly serializable (bounded)"
      `Quick (fun () ->
        (* short conflicting txns; schedules that suspend a lock holder
           forever are cut off by max_steps and simply not completed *)
        let specs =
          [ spec 1 1 [ x ] [ (x, 1) ]; spec 2 2 [ x ] [ (x, 2) ] ]
        in
        let outcomes = Hashtbl.create 4 in
        let r =
          Explorer.for_all ~max_steps:40 ~max_nodes:60_000
            (setup impl specs outcomes) ~pids:[ 1; 2 ]
            (fun r -> Spec.sat (Strict_serializability.check r.Sim.history))
        in
        check "holds" true (Result.is_ok r));
  ]

let pram_tests =
  let impl = (module Pram_tm : Tm_intf.S) in
  [
    Alcotest.test_case "takes zero shared steps" `Quick (fun () ->
        let specs = [ spec 1 1 [ x ] [ (x, 1) ] ] in
        let r, _ = run impl specs [ Schedule.Until_done 1 ] in
        check_int "no steps" 0 (Memory.step_count r.Sim.mem));
    Alcotest.test_case "own process sees its committed writes" `Quick
      (fun () ->
        (* one process running two transactions back to back *)
        let got = ref None in
        let setup mem recorder =
          let handle = Txn_api.instantiate impl mem recorder ~items:[ x ] in
          [ (1,
             fun () ->
               let t1 = handle.Txn_api.begin_txn ~pid:1 ~tid:(Tid.v 1) in
               ignore (Txn_api.write t1 x (Value.int 7));
               ignore (Txn_api.try_commit t1);
               let t2 = handle.Txn_api.begin_txn ~pid:1 ~tid:(Tid.v 2) in
               got := Result.to_option (Txn_api.read t2 x);
               ignore (Txn_api.try_commit t2)) ]
        in
        ignore (Sim.replay ~budget:100 setup [ Schedule.Until_done 1 ]);
        check "sees 7" true (!got = Some (Value.int 7)));
    Alcotest.test_case "other processes never see writes" `Quick (fun () ->
        let specs =
          [ spec 1 1 [] [ (x, 7) ]; spec 2 2 [ x ] [] ]
        in
        let _, outcomes =
          run impl specs [ Schedule.Until_done 1; Schedule.Until_done 2 ]
        in
        check "still 0" true (read_of outcomes 2 x = Some (Value.int 0)));
    Alcotest.test_case "aborted txn's writes invisible to own process" `Quick
      (fun () ->
        let outcomes = Hashtbl.create 4 in
        let got = ref None in
        let setup mem recorder =
          let handle = Txn_api.instantiate impl mem recorder ~items:[ x ] in
          [ (1,
             fun () ->
               let t1 = handle.Txn_api.begin_txn ~pid:1 ~tid:(Tid.v 1) in
               ignore (Txn_api.write t1 x (Value.int 9));
               Txn_api.abort t1;
               let t2 = handle.Txn_api.begin_txn ~pid:1 ~tid:(Tid.v 2) in
               got := Result.to_option (Txn_api.read t2 x);
               ignore (Txn_api.try_commit t2)) ]
        in
        ignore (Sim.replay ~budget:100 setup [ Schedule.Until_done 1 ]);
        ignore outcomes;
        check "rolled back" true (!got = Some (Value.int 0)));
    Alcotest.test_case "every interleaving is PRAM consistent" `Quick
      (fun () ->
        let specs =
          [ spec 1 1 [ x ] [ (x, 1) ]; spec 2 2 [ x ] [ (x, 2) ] ]
        in
        let outcomes = Hashtbl.create 4 in
        let r =
          Explorer.for_all (setup impl specs outcomes) ~pids:[ 1; 2 ]
            (fun r -> Spec.sat (Pram.check r.Sim.history))
        in
        check "holds" true (Result.is_ok r));
  ]

let dstm_tests =
  let impl = (module Dstm_tm : Tm_intf.S) in
  [
    Alcotest.test_case "reader of an active owner sees the old value" `Quick
      (fun () ->
        let specs =
          [ spec 1 1 [] [ (x, 9) ]; spec 2 2 [ x ] [] ]
        in
        (* suspend T1 after it acquired x but before commit *)
        let solo, _ = run impl specs [ Schedule.Until_done 1 ] in
        let n = solo.Sim.steps_of 1 in
        let _, outcomes =
          run impl specs
            [ Schedule.Steps (1, n - 1); Schedule.Until_done 2 ]
        in
        check "old value" true (read_of outcomes 2 x = Some (Value.int 0)));
    Alcotest.test_case "writer aborts an active enemy owner" `Quick (fun () ->
        let specs =
          [ spec 1 1 [] [ (x, 1) ]; spec 2 2 [] [ (x, 2) ] ]
        in
        let solo, _ = run impl specs [ Schedule.Until_done 1 ] in
        let n = solo.Sim.steps_of 1 in
        let _, outcomes =
          run impl specs
            [ Schedule.Steps (1, n - 1); Schedule.Until_done 2;
              Schedule.Until_done 1 ]
        in
        check "T2 committed" true (status outcomes 2 = Static_txn.Committed);
        check "T1 aborted by enemy" true
          (status outcomes 1 = Static_txn.Aborted));
    Alcotest.test_case "chain contention on the status word" `Quick (fun () ->
        let specs =
          [ spec 1 1 [] [ (x, 1) ]; spec 2 2 [] [ (x, 2); (y, 2) ];
            spec 3 3 [] [ (y, 3) ] ]
        in
        let solo, _ = run impl specs [ Schedule.Until_done 2 ] in
        let n = solo.Sim.steps_of 2 in
        let r, _ =
          run impl specs
            [ Schedule.Steps (2, n - 1); Schedule.Until_done 1;
              Schedule.Until_done 3 ]
        in
        let data_sets = Static_txn.data_sets specs in
        check "strict DAP violated" false
          (Strict_dap.holds ~data_sets (entries r));
        check "graph DAP survives" true
          (Graph_dap.holds ~data_sets (entries r)));
    Alcotest.test_case "all interleavings strictly serializable" `Quick
      (fun () ->
        let specs =
          [ spec 1 1 [ x ] [ (x, 1) ]; spec 2 2 [ x ] [ (x, 2) ] ]
        in
        let outcomes = Hashtbl.create 4 in
        let r =
          Explorer.for_all ~max_nodes:200_000
            (setup impl specs outcomes) ~pids:[ 1; 2 ]
            (fun r -> Spec.sat (Strict_serializability.check r.Sim.history))
        in
        check "holds" true (Result.is_ok r));
    Alcotest.test_case "all interleavings obstruction-free" `Quick (fun () ->
        let specs =
          [ spec 1 1 [ x ] [ (x, 1) ]; spec 2 2 [ x ] [ (x, 2) ] ]
        in
        let outcomes = Hashtbl.create 4 in
        let r =
          Explorer.for_all ~max_nodes:200_000
            (setup impl specs outcomes) ~pids:[ 1; 2 ]
            (fun r -> Obstruction_freedom.holds r.Sim.history (entries r))
        in
        check "holds" true (Result.is_ok r));
  ]

let si_tests =
  let impl = (module Si_tm : Tm_intf.S) in
  [
    Alcotest.test_case "snapshot: reader ignores later commits" `Quick
      (fun () ->
        (* T2 begins (takes its snapshot), T1 commits x=1, T2 then reads x:
           must still see 0 *)
        let specs =
          [ spec 1 1 [] [ (x, 1) ]; spec 2 2 [ x ] [] ]
        in
        let _, outcomes =
          run impl specs
            [ Schedule.Steps (2, 1) (* begin: snapshot read *);
              Schedule.Until_done 1; Schedule.Until_done 2 ]
        in
        check "T2 snapshot-old" true (read_of outcomes 2 x = Some (Value.int 0)));
    Alcotest.test_case "no first-committer-wins: both writers commit" `Quick
      (fun () ->
        let specs =
          [ spec 1 1 [] [ (x, 1) ]; spec 2 2 [] [ (x, 2) ] ]
        in
        let _, outcomes =
          run impl specs
            [ Schedule.Steps (1, 3); Schedule.Steps (2, 3);
              Schedule.Until_done 1; Schedule.Until_done 2 ]
        in
        check "both commit" true
          (status outcomes 1 = Static_txn.Committed
          && status outcomes 2 = Static_txn.Committed));
    Alcotest.test_case "helping: reader finishes past a suspended committer"
      `Quick (fun () ->
        let specs =
          [ spec 1 1 [] [ (x, 1); (y, 1) ]; spec 2 2 [ x; y ] [] ]
        in
        let solo, _ = run impl specs [ Schedule.Until_done 1 ] in
        let n = solo.Sim.steps_of 1 in
        (* at every suspension point of the committer, the reader finishes
           and never sees a torn snapshot *)
        for k = 0 to n - 1 do
          let r, outcomes =
            run impl specs [ Schedule.Steps (1, k); Schedule.Until_done 2 ]
          in
          check "completed" true
            (r.Sim.report.Schedule.stop = Schedule.Completed);
          let vx = read_of outcomes 2 x and vy = read_of outcomes 2 y in
          check
            (Printf.sprintf "atomic at k=%d" k)
            true
            ((vx = Some (Value.int 0) && vy = Some (Value.int 0))
            || (vx = Some (Value.int 1) && vy = Some (Value.int 1)))
        done);
    Alcotest.test_case "all interleavings satisfy snapshot isolation" `Quick
      (fun () ->
        let specs =
          [ spec 1 1 [ x ] [ (x, 1) ]; spec 2 2 [ x ] [ (x, 2) ] ]
        in
        let outcomes = Hashtbl.create 4 in
        let r =
          Explorer.for_all ~max_nodes:300_000
            (setup impl specs outcomes) ~pids:[ 1; 2 ]
            (fun r -> Spec.sat (Snapshot_isolation.check r.Sim.history))
        in
        check "holds" true (Result.is_ok r));
    Alcotest.test_case "disjoint txns contend on the clock" `Quick (fun () ->
        let specs =
          [ spec 1 1 [] [ (x, 1) ]; spec 2 2 [] [ (y, 2) ] ]
        in
        let r, _ =
          run impl specs [ Schedule.Until_done 1; Schedule.Until_done 2 ]
        in
        check "strict DAP violated" false
          (Strict_dap.holds ~data_sets:(Static_txn.data_sets specs) (entries r)));
  ]

let candidate_tests =
  let impl = (module Candidate_tm : Tm_intf.S) in
  [
    Alcotest.test_case "torn read: some interleaving breaks SI" `Quick
      (fun () ->
        (* a 2-item writer and a 2-item reader: the reader can observe half
           of the commit *)
        let specs =
          [ spec 1 1 [] [ (x, 1); (y, 1) ]; spec 2 2 [ x; y ] [] ]
        in
        let outcomes = Hashtbl.create 4 in
        let w =
          Explorer.exists ~max_nodes:300_000
            (setup impl specs outcomes) ~pids:[ 1; 2 ]
            (fun r -> Snapshot_isolation.check r.Sim.history = Spec.Unsat)
        in
        check "witness exists" true (w <> None));
    Alcotest.test_case "the witness even breaks weak adaptive consistency"
      `Quick (fun () ->
        let specs =
          [ spec 1 1 [] [ (x, 1); (y, 1) ]; spec 2 2 [ x; y ] [] ]
        in
        let outcomes = Hashtbl.create 4 in
        let w =
          Explorer.exists ~max_nodes:300_000
            (setup impl specs outcomes) ~pids:[ 1; 2 ]
            (fun r -> Weak_adaptive.check r.Sim.history = Spec.Unsat)
        in
        check "witness exists" true (w <> None));
    Alcotest.test_case "yet every interleaving is obstruction-free" `Quick
      (fun () ->
        let specs =
          [ spec 1 1 [] [ (x, 1); (y, 1) ]; spec 2 2 [ x; y ] [] ]
        in
        let outcomes = Hashtbl.create 4 in
        let r =
          Explorer.for_all ~max_nodes:300_000
            (setup impl specs outcomes) ~pids:[ 1; 2 ]
            (fun r -> Obstruction_freedom.holds r.Sim.history (entries r))
        in
        check "holds" true (Result.is_ok r));
    Alcotest.test_case "and every interleaving is strictly DAP" `Quick
      (fun () ->
        let specs =
          [ spec 1 1 [] [ (x, 1); (y, 1) ]; spec 2 2 [ x; y ] [] ]
        in
        let data_sets = Static_txn.data_sets specs in
        let outcomes = Hashtbl.create 4 in
        let r =
          Explorer.for_all ~max_nodes:300_000
            (setup impl specs outcomes) ~pids:[ 1; 2 ]
            (fun r -> Strict_dap.holds ~data_sets (entries r))
        in
        check "holds" true (Result.is_ok r));
    Alcotest.test_case "validation aborts on interference" `Quick (fun () ->
        let specs =
          [ spec 1 1 [ x ] [ (y, 1) ]; spec 2 2 [] [ (x, 9) ] ]
        in
        let _, outcomes =
          run impl specs
            [ Schedule.Steps (1, 1); Schedule.Until_done 2;
              Schedule.Until_done 1 ]
        in
        check "T1 aborted" true (status outcomes 1 = Static_txn.Aborted);
        check "T2 committed" true (status outcomes 2 = Static_txn.Committed));
  ]

let tl2_tests =
  let impl = (module Tl2_tm : Tm_intf.S) in
  [
    Alcotest.test_case "read of a locked item aborts (no stall)" `Quick
      (fun () ->
        (* suspend T1 while it holds x's lock word, then read x *)
        let specs =
          [ spec 1 1 [] [ (x, 1); (y, 1) ]; spec 2 2 [ x ] [] ]
        in
        let solo, _ = run impl specs [ Schedule.Until_done 1 ] in
        let n = solo.Sim.steps_of 1 in
        let aborted_once = ref false in
        for k = 1 to n - 1 do
          let r, outcomes =
            run ~budget:500 impl specs
              [ Schedule.Steps (1, k); Schedule.Until_done 2 ]
          in
          check "never stalls" true
            (r.Sim.report.Schedule.stop = Schedule.Completed);
          if status outcomes 2 = Static_txn.Aborted then aborted_once := true
        done;
        check "abort observed somewhere" true !aborted_once);
    Alcotest.test_case "stale snapshot aborts the reader" `Quick (fun () ->
        (* T2 snapshots the clock, T1 commits x, T2 then reads x: the
           version filter must abort T2 *)
        let specs =
          [ spec 1 1 [] [ (x, 1) ]; spec 2 2 [ x ] [] ]
        in
        let _, outcomes =
          run impl specs
            [ Schedule.Steps (2, 1); Schedule.Until_done 1;
              Schedule.Until_done 2 ]
        in
        check "T2 aborted by the rv filter" true
          (status outcomes 2 = Static_txn.Aborted));
    Alcotest.test_case "read-only commit takes no extra steps" `Quick
      (fun () ->
        let specs = [ spec 1 1 [ x; y ] [] ] in
        let r, outcomes = run impl specs [ Schedule.Until_done 1 ] in
        check "committed" true (status outcomes 1 = Static_txn.Committed);
        (* begin (clock) + two reads = 3 steps, nothing at commit *)
        Alcotest.(check int) "steps" 3 (Memory.step_count r.Sim.mem));
    Alcotest.test_case "disjoint txns contend on the clock" `Quick (fun () ->
        let specs =
          [ spec 1 1 [] [ (x, 1) ]; spec 2 2 [] [ (y, 2) ] ]
        in
        let r, _ =
          run impl specs [ Schedule.Until_done 1; Schedule.Until_done 2 ]
        in
        check "strict DAP violated" false
          (Strict_dap.holds ~data_sets:(Static_txn.data_sets specs) (entries r)));
    Alcotest.test_case "all interleavings opaque" `Quick (fun () ->
        let specs =
          [ spec 1 1 [ x ] [ (x, 1) ]; spec 2 2 [ x ] [ (x, 2) ] ]
        in
        let outcomes = Hashtbl.create 4 in
        let r =
          Explorer.for_all ~max_steps:60 ~max_nodes:100_000
            (setup impl specs outcomes) ~pids:[ 1; 2 ]
            (fun r -> Spec.sat (Opacity.check r.Sim.history))
        in
        check "holds" true (Result.is_ok r));
  ]


let norec_tests =
  let impl = (module Norec_tm : Tm_intf.S) in
  [
    Alcotest.test_case "suspended writer stalls a disjoint reader" `Quick
      (fun () ->
        (* the writer is suspended while seq is odd; even a DISJOINT
           transaction spins — NOrec's anti-DAP and anti-liveness defects
           coincide in the same object *)
        let specs =
          [ spec 1 1 [ y ] [] ; spec 2 2 [] [ (x, 2) ] ]
        in
        let solo, _ = run impl specs [ Schedule.Until_done 2 ] in
        let n = solo.Sim.steps_of 2 in
        let stalled = ref false in
        for k = 1 to n - 1 do
          let r, _ =
            run ~budget:300 impl specs
              [ Schedule.Steps (2, k); Schedule.Until_done 1 ]
          in
          match r.Sim.report.Schedule.stop with
          | Schedule.Budget_exhausted { Schedule.stalled_pid = 1; _ } ->
              stalled := true
          | _ -> ()
        done;
        check "stall observed" true !stalled);
    Alcotest.test_case "read-only txns never touch anything but seq" `Quick
      (fun () ->
        let specs = [ spec 1 1 [ x; y ] [] ] in
        let r, outcomes = run impl specs [ Schedule.Until_done 1 ] in
        check "committed" true (status outcomes 1 = Static_txn.Committed);
        (* begin: 1 seq read; two item reads with one seq post-check each *)
        check "few steps" true (Memory.step_count r.Sim.mem <= 6));
    Alcotest.test_case "value-based validation aborts a torn read set"
      `Quick (fun () ->
        (* one completed read is not enough — NOrec simply re-snapshots;
           a second read after a conflicting commit must revalidate the
           first by value, fail, and abort *)
        let specs =
          [ spec 1 1 [ x; y ] []; spec 2 2 [] [ (x, 9) ] ]
        in
        let _, outcomes =
          run impl specs
            [ Schedule.Steps (1, 3) (* begin + read x completed *);
              Schedule.Until_done 2; Schedule.Until_done 1 ]
        in
        check "T2 committed" true (status outcomes 2 = Static_txn.Committed);
        check "T1 aborted" true (status outcomes 1 = Static_txn.Aborted));
    Alcotest.test_case "empty read set allows re-snapshotting" `Quick
      (fun () ->
        let specs =
          [ spec 1 1 [ x ] [ (y, 1) ]; spec 2 2 [] [ (x, 9) ] ]
        in
        let _, outcomes =
          run impl specs
            [ Schedule.Steps (1, 2); Schedule.Until_done 2;
              Schedule.Until_done 1 ]
        in
        check "T2 committed" true (status outcomes 2 = Static_txn.Committed);
        check "T1 commits with the fresh snapshot" true
          (status outcomes 1 = Static_txn.Committed);
        check "T1 read the new value" true
          (read_of outcomes 1 x = Some (Value.int 9)));
    Alcotest.test_case "disjoint txns contend on seq" `Quick (fun () ->
        let specs =
          [ spec 1 1 [] [ (x, 1) ]; spec 2 2 [] [ (y, 2) ] ]
        in
        let r, _ =
          run impl specs [ Schedule.Until_done 1; Schedule.Until_done 2 ]
        in
        check "strict DAP violated" false
          (Strict_dap.holds ~data_sets:(Static_txn.data_sets specs) (entries r)));
    Alcotest.test_case "all interleavings opaque" `Quick (fun () ->
        let specs =
          [ spec 1 1 [ x ] [ (x, 1) ]; spec 2 2 [ x ] [ (x, 2) ] ]
        in
        let outcomes = Hashtbl.create 4 in
        let r =
          Explorer.for_all ~max_steps:60 ~max_nodes:150_000
            (setup impl specs outcomes) ~pids:[ 1; 2 ]
            (fun r -> Spec.sat (Opacity.check r.Sim.history))
        in
        check "holds" true (Result.is_ok r));
  ]


(* the Atomically retry combinator: concurrent counter increments never
   lose updates on the (conflict-)serializable TMs *)
let atomically_tests =
  List.filter_map
    (fun impl ->
      let (module M : Tm_intf.S) = impl in
      if
        not
          (List.mem M.name
             [ "tl-lock"; "dstm"; "candidate"; "tl2-clock"; "norec";
               "llsc-candidate"; "lp-progressive"; "pwf-readers" ])
      then None
      else
        Some
          (Alcotest.test_case (M.name ^ ": retried increments never lost")
             `Quick (fun () ->
               let per_proc = 5 in
               let final = ref None in
               let setup mem recorder =
                 let handle =
                   Txn_api.instantiate impl mem recorder ~items:[ x ]
                 in
                 let client pid () =
                   for _ = 1 to per_proc do
                     Atomically.run handle ~pid ~max_attempts:2_000 (fun txn ->
                         let v =
                           Value.to_int_exn (Atomically.read txn x)
                         in
                         Atomically.write txn x (Value.int (v + 1));
                         Atomically.Done ())
                   done
                 in
                 [ (1, client 1); (2, client 2);
                   (3,
                    fun () ->
                      final :=
                        Some
                          (Atomically.run handle ~pid:3 (fun txn ->
                               Atomically.Done (Atomically.read txn x)))) ]
               in
               (* fair round-robin between the two incrementers, then the
                  reader *)
               (* a fair but not perfectly periodic interleaving: strict
                  1-step alternation can livelock DSTM (see the liveness
                  probes), which is a progress question, not the lost-update
                  question asked here *)
               let atoms =
                 List.concat
                   (List.init 100 (fun i ->
                        [ Schedule.Steps (1, 2 + (i mod 3));
                          Schedule.Steps (2, 2 + ((i + 1) mod 3)) ]))
                 @ [ Schedule.Until_done 1; Schedule.Until_done 2;
                     Schedule.Until_done 3 ]
               in
               let r = Sim.replay ~budget:50_000 setup atoms in
               check "completed" true
                 (r.Sim.report.Schedule.stop = Schedule.Completed);
               check "no lost update" true
                 (!final = Some (Value.int (2 * per_proc))))))
    Registry.all


let llsc_tests =
  let impl = (module Llsc_tm : Tm_intf.S) in
  [
    Alcotest.test_case "sc-reservation blocks lost updates" `Quick (fun () ->
        (* T1 LLs x, T2 commits x, T1's SC must fail *)
        let specs =
          [ spec 1 1 [ x ] [ (x, 1) ]; spec 2 2 [] [ (x, 9) ] ]
        in
        let _, outcomes =
          run impl specs
            [ Schedule.Steps (1, 1); Schedule.Until_done 2;
              Schedule.Until_done 1 ]
        in
        check "T2 committed" true (status outcomes 2 = Static_txn.Committed);
        check "T1 aborted by SC" true
          (status outcomes 1 = Static_txn.Aborted));
    Alcotest.test_case "torn read witness exists (the theorem)" `Quick
      (fun () ->
        let specs =
          [ spec 1 1 [] [ (x, 1); (y, 1) ]; spec 2 2 [ x; y ] [] ]
        in
        let outcomes = Hashtbl.create 4 in
        let w =
          Explorer.exists ~max_nodes:300_000
            (setup impl specs outcomes) ~pids:[ 1; 2 ]
            (fun r -> Weak_adaptive.check r.Sim.history = Spec.Unsat)
        in
        check "witness exists" true (w <> None));
    Alcotest.test_case "every interleaving strictly DAP and OF" `Quick
      (fun () ->
        let specs =
          [ spec 1 1 [] [ (x, 1); (y, 1) ]; spec 2 2 [ x; y ] [] ]
        in
        let data_sets = Static_txn.data_sets specs in
        let outcomes = Hashtbl.create 4 in
        let r =
          Explorer.for_all ~max_nodes:300_000
            (setup impl specs outcomes) ~pids:[ 1; 2 ]
            (fun r ->
              Strict_dap.holds ~data_sets (entries r)
              && Obstruction_freedom.holds r.Sim.history (entries r))
        in
        check "holds" true (Result.is_ok r));
    Alcotest.test_case "read validation SC aborts a concurrent reader"
      `Quick (fun () ->
        (* T1 reads x (read-only in its set) and writes y; its validation
           SC on x invalidates T2's reservation on x *)
        let specs =
          [ spec 1 1 [ x ] [ (y, 1) ]; spec 2 2 [ x ] [ (x, 5) ] ]
        in
        let _, outcomes =
          run impl specs
            [ Schedule.Steps (2, 1) (* T2 LLs x *);
              Schedule.Until_done 1 (* T1 commits: validation SC on x *);
              Schedule.Until_done 2 ]
        in
        check "T1 committed" true (status outcomes 1 = Static_txn.Committed);
        check "T2's SC failed" true (status outcomes 2 = Static_txn.Aborted));
  ]


let lp_tests =
  let impl = (module Lp_tm : Tm_intf.S) in
  [
    Alcotest.test_case "conflict aborts self, never the lock holder" `Quick
      (fun () ->
        (* T1 acquires x's try-lock at encounter time; T2's write then
           sees the lock and aborts T2 itself — the progressive
           contention policy *)
        let specs =
          [ spec 1 1 [] [ (x, 1) ]; spec 2 2 [] [ (x, 2) ] ]
        in
        let _, outcomes =
          run impl specs
            [ Schedule.Steps (1, 2) (* locator read + lock CAS *);
              Schedule.Until_done 2; Schedule.Until_done 1 ]
        in
        check "T2 aborted itself" true
          (status outcomes 2 = Static_txn.Aborted);
        check "the lock holder committed" true
          (status outcomes 1 = Static_txn.Committed));
    Alcotest.test_case "a reader observing a locked item aborts" `Quick
      (fun () ->
        let specs =
          [ spec 1 1 [] [ (x, 1) ]; spec 2 2 [ x ] [] ]
        in
        let _, outcomes =
          run impl specs
            [ Schedule.Steps (1, 2); Schedule.Until_done 2;
              Schedule.Until_done 1 ]
        in
        check "reader aborted" true (status outcomes 2 = Static_txn.Aborted);
        check "writer committed" true
          (status outcomes 1 = Static_txn.Committed));
    Alcotest.test_case "a conflict abort releases acquired locks" `Quick
      (fun () ->
        (* T1 locks x, then hits T2's lock on y and self-aborts; x must
           be unlocked again for T3 *)
        let specs =
          [ spec 1 1 [] [ (x, 1); (y, 1) ]; spec 2 2 [] [ (y, 2) ];
            spec 3 3 [] [ (x, 3) ] ]
        in
        let _, outcomes =
          run impl specs
            [ Schedule.Steps (2, 2) (* T2 holds y's lock *);
              Schedule.Until_done 1 (* locks x, conflicts on y, aborts *);
              Schedule.Until_done 2; Schedule.Until_done 3 ]
        in
        check "T1 aborted" true (status outcomes 1 = Static_txn.Aborted);
        check "T2 committed" true (status outcomes 2 = Static_txn.Committed);
        check "T3 reacquires x's lock" true
          (status outcomes 3 = Static_txn.Committed));
    Alcotest.test_case "disjoint txns never contend (strict DAP)" `Quick
      (fun () ->
        let specs =
          [ spec 1 1 [] [ (x, 1) ]; spec 2 2 [] [ (y, 2) ] ]
        in
        let data_sets = Static_txn.data_sets specs in
        let outcomes = Hashtbl.create 4 in
        let r =
          Explorer.for_all ~max_nodes:150_000
            (setup impl specs outcomes) ~pids:[ 1; 2 ]
            (fun r -> Strict_dap.holds ~data_sets (entries r))
        in
        check "holds" true (Result.is_ok r));
    Alcotest.test_case "all interleavings opaque" `Quick (fun () ->
        let specs =
          [ spec 1 1 [ x ] [ (x, 1) ]; spec 2 2 [ x ] [ (x, 2) ] ]
        in
        let outcomes = Hashtbl.create 4 in
        let r =
          Explorer.for_all ~max_steps:60 ~max_nodes:150_000
            (setup impl specs outcomes) ~pids:[ 1; 2 ]
            (fun r -> Spec.sat (Opacity.check r.Sim.history))
        in
        check "holds" true (Result.is_ok r));
  ]


let pwf_tests =
  let impl = (module Pwf_tm : Tm_intf.S) in
  [
    Alcotest.test_case "read-only txn takes exactly one shared step" `Quick
      (fun () ->
        (* the whole read-only transaction is the one root load at begin:
           the constant step bound behind reader wait-freedom *)
        let specs = [ spec 1 1 [ x; y ] [] ] in
        let r, outcomes = run impl specs [ Schedule.Until_done 1 ] in
        check "committed" true (status outcomes 1 = Static_txn.Committed);
        check_int "one shared step" 1 (r.Sim.steps_of 1));
    Alcotest.test_case "updater retries its CAS and commits (lock-free)"
      `Quick (fun () ->
        (* T1 snapshots the root, T2 commits first; T1's publish CAS
           fails once, re-reads the root and succeeds *)
        let specs =
          [ spec 1 1 [] [ (x, 1) ]; spec 2 2 [] [ (y, 2) ];
            spec 3 3 [ x; y ] [] ]
        in
        let _, outcomes =
          run impl specs
            [ Schedule.Steps (1, 1) (* root snapshot only *);
              Schedule.Until_done 2; Schedule.Until_done 1;
              Schedule.Until_done 3 ]
        in
        check "T1 committed after the retry" true
          (status outcomes 1 = Static_txn.Committed);
        check "T2 committed" true (status outcomes 2 = Static_txn.Committed);
        check "both writes visible" true
          (read_of outcomes 3 x = Some (Value.int 1)
          && read_of outcomes 3 y = Some (Value.int 2)));
    Alcotest.test_case "updater aborts on read validation failure" `Quick
      (fun () ->
        let specs =
          [ spec 1 1 [ x ] [ (y, 1) ]; spec 2 2 [] [ (x, 9) ] ]
        in
        let _, outcomes =
          run impl specs
            [ Schedule.Steps (1, 1) (* snapshot read of x *);
              Schedule.Until_done 2; Schedule.Until_done 1 ]
        in
        check "T2 committed" true (status outcomes 2 = Static_txn.Committed);
        check "T1 aborted" true (status outcomes 1 = Static_txn.Aborted));
    Alcotest.test_case "disjoint txns contend on the root" `Quick (fun () ->
        let specs =
          [ spec 1 1 [] [ (x, 1) ]; spec 2 2 [] [ (y, 2) ] ]
        in
        let r, _ =
          run impl specs [ Schedule.Until_done 1; Schedule.Until_done 2 ]
        in
        check "strict DAP violated" false
          (Strict_dap.holds ~data_sets:(Static_txn.data_sets specs) (entries r)));
    Alcotest.test_case "all interleavings opaque" `Quick (fun () ->
        let specs =
          [ spec 1 1 [ x ] [ (x, 1) ]; spec 2 2 [ x ] [ (x, 2) ] ]
        in
        let outcomes = Hashtbl.create 4 in
        let r =
          Explorer.for_all ~max_steps:60 ~max_nodes:150_000
            (setup impl specs outcomes) ~pids:[ 1; 2 ]
            (fun r -> Spec.sat (Opacity.check r.Sim.history))
        in
        check "holds" true (Result.is_ok r));
  ]


let atomically_unit_tests =
  [
    Alcotest.test_case "Retry outcome aborts and re-executes" `Quick
      (fun () ->
        let attempts = ref 0 in
        let got = ref None in
        let setup mem recorder =
          let handle =
            Txn_api.instantiate (module Candidate_tm) mem recorder
              ~items:[ x ]
          in
          [ (1,
             fun () ->
               got :=
                 Some
                   (Atomically.run handle ~pid:1 (fun txn ->
                        incr attempts;
                        let v = Atomically.read txn x in
                        if !attempts < 3 then Atomically.Retry
                        else Atomically.Done v))) ]
        in
        ignore (Sim.replay ~budget:1_000 setup [ Schedule.Until_done 1 ]);
        Alcotest.(check int) "three attempts" 3 !attempts;
        check "value" true (!got = Some Value.initial));
    Alcotest.test_case "Too_many_retries is raised and reported" `Quick
      (fun () ->
        let setup mem recorder =
          let handle =
            Txn_api.instantiate (module Candidate_tm) mem recorder
              ~items:[ x ]
          in
          [ (1,
             fun () ->
               ignore
                 (Atomically.run handle ~pid:1 ~max_attempts:2 (fun _ ->
                      Atomically.Retry))) ]
        in
        let r = Sim.replay ~budget:1_000 setup [ Schedule.Until_done 1 ] in
        check "crashed with Too_many_retries" true
          (match r.Sim.report.Schedule.stop with
          | Schedule.Crashed (1, Atomically.Too_many_retries _) -> true
          | _ -> false));
    Alcotest.test_case "fresh tids are unique across attempts" `Quick
      (fun () ->
        let setup mem recorder =
          let handle =
            Txn_api.instantiate (module Candidate_tm) mem recorder
              ~items:[ x ]
          in
          [ (1,
             fun () ->
               for _ = 1 to 3 do
                 Atomically.run handle ~pid:1 (fun txn ->
                     ignore (Atomically.read txn x);
                     Atomically.Done ())
               done) ]
        in
        let r = Sim.replay ~budget:1_000 setup [ Schedule.Until_done 1 ] in
        let tids = History.txns r.Sim.history in
        Alcotest.(check int) "three distinct txns" 3 (List.length tids);
        check "well-formed" true
          (Result.is_ok (History.well_formed r.Sim.history)));
  ]

let () =
  Alcotest.run "tm"
    [
      ("common", List.concat_map common_tests Registry.all);
      ("atomically", atomically_unit_tests @ atomically_tests);
      ("tl-lock", tl_tests);
      ("pram-local", pram_tests);
      ("dstm", dstm_tests);
      ("si-clock", si_tests);
      ("candidate", candidate_tests);
      ("tl2-clock", tl2_tests);
      ("norec", norec_tests);
      ("llsc-candidate", llsc_tests);
      ("lp-progressive", lp_tests);
      ("pwf-readers", pwf_tests);
    ]

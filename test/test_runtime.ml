(* Tests for the effect-based deterministic scheduler, schedules, replay
   and the interleaving explorer (tm_runtime). *)

open Core

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* a process that does n writes to its own object *)
let writer _mem ~oid ~n () =
  for i = 1 to n do
    Proc.write oid (Value.int i)
  done

let mk_world n_per_proc =
  let mem = Memory.create () in
  let sched = Scheduler.create mem in
  let oids =
    List.map
      (fun pid -> (pid, Memory.alloc mem ~name:(Printf.sprintf "o%d" pid) (Value.int 0)))
      [ 1; 2 ]
  in
  List.iter
    (fun (pid, oid) -> Scheduler.spawn sched ~pid (writer mem ~oid ~n:n_per_proc))
    oids;
  (mem, sched)

let scheduler_tests =
  [
    Alcotest.test_case "step advances one primitive" `Quick (fun () ->
        let mem, sched = mk_world 3 in
        check "stepped" true (Scheduler.step sched 1 = Scheduler.Stepped);
        check_int "one step" 1 (Memory.step_count mem);
        check "not finished" false (Scheduler.finished sched 1));
    Alcotest.test_case "run to completion" `Quick (fun () ->
        let mem, sched = mk_world 3 in
        check_int "three steps" 3 (Scheduler.run_steps sched 1 10);
        check "finished" true (Scheduler.finished sched 1);
        check "further steps are no-ops" true
          (Scheduler.step sched 1 = Scheduler.Already_finished);
        check_int "count stable" 3 (Memory.step_count mem));
    Alcotest.test_case "interleaving under control" `Quick (fun () ->
        let mem, sched = mk_world 2 in
        ignore (Scheduler.run_steps sched 1 1);
        ignore (Scheduler.run_steps sched 2 2);
        ignore (Scheduler.run_steps sched 1 1);
        let pids =
          List.map (fun (e : Access_log.entry) -> e.Access_log.pid)
            (Access_log.entries (Memory.log mem))
        in
        check "exact order" true (pids = [ 1; 2; 2; 1 ]));
    Alcotest.test_case "duplicate spawn rejected" `Quick (fun () ->
        let _, sched = mk_world 1 in
        check "raises" true
          (try
             Scheduler.spawn sched ~pid:1 (fun () -> ());
             false
           with Invalid_argument _ -> true));
    Alcotest.test_case "unknown pid rejected" `Quick (fun () ->
        let _, sched = mk_world 1 in
        check "raises" true
          (try
             ignore (Scheduler.step sched 99);
             false
           with Invalid_argument _ -> true));
    Alcotest.test_case "zero-step process finishes immediately" `Quick
      (fun () ->
        let mem = Memory.create () in
        let sched = Scheduler.create mem in
        Scheduler.spawn sched ~pid:1 (fun () -> ());
        check "already finished on first step" true
          (Scheduler.step sched 1 = Scheduler.Already_finished);
        check "finished" true (Scheduler.finished sched 1));
    Alcotest.test_case "crash is captured, not raised" `Quick (fun () ->
        let mem = Memory.create () in
        let sched = Scheduler.create mem in
        let oid = Memory.alloc mem ~name:"o" (Value.int 0) in
        Scheduler.spawn sched ~pid:1 (fun () ->
            ignore (Proc.read oid);
            failwith "boom");
        ignore (Scheduler.step sched 1);
        check "crashed" true
          (match Scheduler.crashed sched 1 with
          | Some (Failure msg) -> msg = "boom"
          | _ -> false));
    Alcotest.test_case "run_solo terminates and reports budget" `Quick
      (fun () ->
        let mem = Memory.create () in
        let sched = Scheduler.create mem in
        let oid = Memory.alloc mem ~name:"o" (Value.int 0) in
        Scheduler.spawn sched ~pid:1 (fun () ->
            (* spin forever *)
            while true do
              ignore (Proc.read oid)
            done);
        check "out of budget" true
          (Scheduler.run_solo sched 1 ~budget:50 = Scheduler.Out_of_budget);
        Scheduler.spawn sched ~pid:2 (writer mem ~oid ~n:4);
        check "done 4" true
          (Scheduler.run_solo sched 2 ~budget:50 = Scheduler.Done 4));
  ]

(* Sim-based tests use a trivial setup with two independent counters *)
let counter_setup steps1 steps2 : Sim.setup =
 fun mem _recorder ->
  let o1 = Memory.alloc mem ~name:"c1" (Value.int 0) in
  let o2 = Memory.alloc mem ~name:"c2" (Value.int 0) in
  [
    (1, fun () -> for _ = 1 to steps1 do ignore (Proc.fetch_add o1 1) done);
    (2, fun () -> for _ = 1 to steps2 do ignore (Proc.fetch_add o2 1) done);
  ]

let sim_tests =
  [
    Alcotest.test_case "replay is deterministic" `Quick (fun () ->
        let sched = [ Schedule.Steps (1, 2); Schedule.Steps (2, 3);
                      Schedule.Until_done 1 ] in
        let r1 = Sim.replay (counter_setup 5 3) sched in
        let r2 = Sim.replay (counter_setup 5 3) sched in
        let sig_of (r : Sim.result) =
          List.map
            (fun (e : Access_log.entry) ->
              (e.Access_log.pid, Oid.to_int e.Access_log.oid,
               Value.to_string e.Access_log.response))
            (Access_log.entries (Memory.log r.Sim.mem))
        in
        check "identical logs" true (sig_of r1 = sig_of r2));
    Alcotest.test_case "prefix replay yields prefix log" `Quick (fun () ->
        let short = Sim.replay (counter_setup 5 3) [ Schedule.Steps (1, 2) ] in
        let long =
          Sim.replay (counter_setup 5 3)
            [ Schedule.Steps (1, 2); Schedule.Steps (2, 1) ]
        in
        let sig_of (r : Sim.result) =
          List.map
            (fun (e : Access_log.entry) ->
              (e.Access_log.pid, Value.to_string e.Access_log.response))
            (Access_log.entries (Memory.log r.Sim.mem))
        in
        let s = sig_of short and l = sig_of long in
        check_int "lengths" 2 (List.length s);
        check "prefix" true
          (List.filteri (fun i _ -> i < 2) l = s));
    Alcotest.test_case "schedule report counts steps" `Quick (fun () ->
        let r =
          Sim.replay (counter_setup 5 3)
            [ Schedule.Steps (1, 2); Schedule.Until_done 2;
              Schedule.Until_done 1 ]
        in
        check "completed" true (r.Sim.report.Schedule.stop = Schedule.Completed);
        check "per atom" true
          (r.Sim.report.Schedule.steps_per_atom = [ 2; 3; 3 ]);
        check_int "steps of p1" 5 (r.Sim.steps_of 1));
    Alcotest.test_case "budget exhaustion reported with pid" `Quick (fun () ->
        let spin : Sim.setup =
         fun mem _ ->
          let o = Memory.alloc mem ~name:"o" (Value.int 0) in
          [ (1, fun () -> while true do ignore (Proc.read o) done) ]
        in
        let r = Sim.replay ~budget:30 spin [ Schedule.Until_done 1 ] in
        check "exhausted by p1" true
          (match r.Sim.report.Schedule.stop with
          | Schedule.Budget_exhausted { Schedule.stalled_pid = 1; _ } -> true
          | _ -> false));
    Alcotest.test_case "solo_length measures a segment" `Quick (fun () ->
        check "5 steps" true
          (Sim.solo_length (counter_setup 5 3) ~prefix:[] 1 = Some 5);
        check "after prefix" true
          (Sim.solo_length (counter_setup 5 3)
             ~prefix:[ Schedule.Steps (1, 2) ] 1
          = Some 3));
  ]

let explorer_tests =
  [
    Alcotest.test_case "enumerates all interleavings" `Quick (fun () ->
        (* two independent processes with 3 and 2 steps: C(5,3) = 10 *)
        let stats =
          Explorer.explore (counter_setup 3 2) ~pids:[ 1; 2 ]
            ~on_execution:(fun _ -> ())
        in
        check_int "executions" 10 stats.Explorer.executions;
        check "complete" false stats.Explorer.truncated);
    Alcotest.test_case "for_all over interleavings" `Quick (fun () ->
        let r =
          Explorer.for_all (counter_setup 2 2) ~pids:[ 1; 2 ] (fun r ->
              (* both counters always end at their target *)
              Memory.step_count r.Sim.mem = 4)
        in
        check "holds" true (Result.is_ok r));
    Alcotest.test_case "exists finds a witness" `Quick (fun () ->
        let w =
          Explorer.exists (counter_setup 2 2) ~pids:[ 1; 2 ] (fun r ->
              (* some interleaving starts with p2 *)
              match Access_log.entries (Memory.log r.Sim.mem) with
              | e :: _ -> e.Access_log.pid = 2
              | [] -> false)
        in
        check "witness" true (w <> None));
    Alcotest.test_case "counterexample is returned" `Quick (fun () ->
        let r =
          Explorer.for_all (counter_setup 2 2) ~pids:[ 1; 2 ] (fun r ->
              match Access_log.entries (Memory.log r.Sim.mem) with
              | e :: _ -> e.Access_log.pid = 1
              | [] -> false)
        in
        check "fails" true (Result.is_error r));
    Alcotest.test_case "truncation respects bounds" `Quick (fun () ->
        let stats =
          Explorer.explore ~max_executions:3 (counter_setup 3 3)
            ~pids:[ 1; 2 ] ~on_execution:(fun _ -> ())
        in
        check "truncated" true stats.Explorer.truncated;
        check "capped" true (stats.Explorer.executions <= 3));
  ]

let () =
  Alcotest.run "runtime"
    [
      ("scheduler", scheduler_tests);
      ("sim", sim_tests);
      ("explorer", explorer_tests);
    ]

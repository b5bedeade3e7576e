(* Tests for the chaos engine (lib/chaos): fault atoms and their codec,
   deterministic replay of faulted runs, flight-recorder crash marks,
   spurious RMW failure, transaction poison, contention managers and the
   crash-closure checker. *)

open Core

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

(* -- fault atoms and the schedule codec --------------------------------- *)

let atom_tests =
  [
    Alcotest.test_case "fault atoms round-trip the codec" `Quick (fun () ->
        let atoms =
          [
            Schedule.Steps (1, 7);
            Schedule.Crash 1;
            Schedule.Park 2;
            Schedule.Unpark 2;
            Schedule.Poison 3;
            Schedule.Until_done 2;
          ]
        in
        let s = Schedule.to_string atoms in
        check_string "rendered" "p1:7,p1:!,p2:z,p2:w,p3:~,p2:*" s;
        match Schedule.of_string s with
        | Ok atoms' -> check "parsed back" true (atoms' = atoms)
        | Error e -> Alcotest.failf "parse error: %s" e);
    Alcotest.test_case "bad fault token rejected" `Quick (fun () ->
        check "rejected" true
          (match Schedule.of_string "p1:8,p2:q" with
          | Error _ -> true
          | Ok _ -> false));
  ]

(* -- crash-stop injection ----------------------------------------------- *)

(* two independent writers; p1 is crash-stopped after its first quantum *)
let crash_setup : Sim.setup =
 fun mem _recorder ->
  let o1 = Memory.alloc mem ~name:"o1" (Value.int 0) in
  let o2 = Memory.alloc mem ~name:"o2" (Value.int 0) in
  let writer oid n () =
    for i = 1 to n do
      Proc.write oid (Value.int i)
    done
  in
  [ (1, writer o1 10); (2, writer o2 10) ]

let crash_atoms =
  [
    Schedule.Steps (1, 4);
    Schedule.Steps (2, 4);
    Schedule.Crash 1;
    Schedule.Until_done 1;
    Schedule.Until_done 2;
  ]

let crash_tests =
  [
    Alcotest.test_case "crash-stop halts the victim, spares the rest" `Quick
      (fun () ->
        let r = Sim.replay crash_setup crash_atoms in
        check "completed" true
          (r.Sim.report.Schedule.stop = Schedule.Completed);
        check "crash recorded at step 8" true
          (r.Sim.report.Schedule.crashes = [ (1, 8) ]);
        check_int "victim stopped after its quantum" 4 (r.Sim.steps_of 1);
        check_int "survivor ran to completion" 10 (r.Sim.steps_of 2);
        check "victim never finishes" false (r.Sim.finished 1);
        check "survivor finishes" true (r.Sim.finished 2));
    Alcotest.test_case "crashed replay is deterministic" `Quick (fun () ->
        let entry (e : Access_log.entry) =
          (e.Access_log.pid, e.Access_log.oid, e.Access_log.response)
        in
        let r1 = Sim.replay crash_setup crash_atoms in
        let r2 = Sim.replay crash_setup crash_atoms in
        check "identical logs" true
          (List.map entry (Log_ref.of_log (Memory.log r1.Sim.mem))
          = List.map entry (Log_ref.of_log (Memory.log r2.Sim.mem)));
        check "identical crash reports" true
          (r1.Sim.report.Schedule.crashes = r2.Sim.report.Schedule.crashes));
    Alcotest.test_case "flight recorder marks the crash step" `Quick
      (fun () ->
        let fl = Flight.create () in
        let r =
          Flight.with_recorder fl (fun () ->
              Sim.replay crash_setup crash_atoms)
        in
        let pid, step = List.hd r.Sim.report.Schedule.crashes in
        check "meta records the injected crash" true
          (Flight.meta_value fl "crashes"
          = Some (Printf.sprintf "p%d@%d" pid step));
        check "schedule meta keeps the crash atom" true
          (match Flight.meta_value fl "schedule" with
          | Some s ->
              List.exists (( = ) "p1:!") (String.split_on_char ',' s)
          | None -> false));
  ]

(* -- spurious RMW failure ----------------------------------------------- *)

let spurious_tests =
  [
    Alcotest.test_case "spurious fault fails RMW only, leaves state" `Quick
      (fun () ->
        let mem = Memory.create () in
        let x = Memory.alloc mem ~name:"x" (Value.int 0) in
        Memory.set_fault_hook mem (fun ~pid:_ ~tid:_ ~step:_ _ _ ->
            Some Memory.Spurious_fail);
        let cas =
          Memory.apply mem ~pid:1 x
            (Primitive.Cas { expected = Value.int 0; desired = Value.int 9 })
        in
        check "cas reports failure" true (cas = Value.bool false);
        check "state untouched" true (Memory.peek mem x = Value.int 0);
        (* non-RMW primitives ignore the hook entirely *)
        ignore (Memory.apply mem ~pid:1 x (Primitive.Write (Value.int 5)));
        check "write still lands" true (Memory.peek mem x = Value.int 5);
        check "read unaffected" true
          (Memory.apply mem ~pid:1 x Primitive.Read = Value.int 5));
  ]

(* -- transaction poison ------------------------------------------------- *)

let bump item txn =
  let v = Atomically.read txn item in
  Atomically.write txn item
    (Value.int (1 + Option.value ~default:0 (Value.to_int v)));
  Atomically.Done ()

let poison_tests =
  [
    Alcotest.test_case "poison forces one abort, then the retry commits"
      `Quick (fun () ->
        let impl = Registry.find_exn "tl-lock" in
        let item = Item.v "x" in
        let aborts = ref 0 and committed = ref false in
        let setup mem recorder =
          let handle = Txn_api.instantiate impl mem recorder ~items:[ item ] in
          [
            ( 1,
              fun () ->
                Atomically.run handle ~pid:1
                  ~on_abort:(fun ~attempt:_ ->
                    incr aborts;
                    true)
                  (bump item);
                committed := true );
          ]
        in
        let r =
          Sim.replay setup [ Schedule.Poison 1; Schedule.Until_done 1 ]
        in
        check "completed" true
          (r.Sim.report.Schedule.stop = Schedule.Completed);
        check_int "exactly one forced abort" 1 !aborts;
        check "retry commits" true !committed;
        let h = r.Sim.history in
        check "history shows one aborted and one committed txn" true
          (List.length (List.filter (History.aborted h) (History.txns h))
           = 1
          && List.length
               (List.filter (History.committed h) (History.txns h))
             = 1));
  ]

(* -- contention managers ------------------------------------------------ *)

(* One process, candidate TM, spurious CAS failure for the whole
   [Fault.spurious_window].  An impatient policy burns all its attempts
   inside the window and gives up — the injected livelock; a backoff
   policy spends the window waiting and commits once it closes.  This is
   the chaos engine's reason to exist: the contention manager converts a
   transient-fault livelock into a commit. *)
let run_under_spurious policy =
  let impl = Registry.find_exn "candidate" in
  let inst =
    Fault.instantiate Fault.Spurious_rmw ~seed:1 ~pids:[ 1 ] ~rounds:8
  in
  let item = Item.v "x" in
  let outcome = ref None in
  let setup mem recorder =
    (match inst.Fault.hook with
    | Some h -> Memory.set_fault_hook mem h
    | None -> assert false);
    let handle = Txn_api.instantiate impl mem recorder ~items:[ item ] in
    let scratch = Cm.scratch mem in
    [
      ( 1,
        fun () ->
          outcome :=
            Some
              (Cm.atomically policy ~scratch ~seed:7 ~tm:"candidate" handle
                 ~pid:1 (bump item)) );
    ]
  in
  let r = Sim.replay ~budget:60_000 setup [ Schedule.Until_done 1 ] in
  check "completed" true (r.Sim.report.Schedule.stop = Schedule.Completed);
  Option.get !outcome

(* The karma policy's currency: at its i-th abort a policy sees the reads
   and writes invoked over all i aborted attempts, answered or not.  The
   body makes [k] alternating reads and writes and asks to retry [n]
   times; a poisoned start adds one attempt aborted at its first read. *)
let karma_law =
  QCheck.Test.make ~name:"karma counts the aborted attempts' operations"
    ~count:60
    QCheck.(triple (int_range 1 6) (int_range 0 5) bool)
    (fun (k, n, poisoned) ->
      let seen = ref [] in
      let recording =
        {
          Cm.karma with
          Cm.name = "recording";
          decide =
            (fun c ->
              seen := c.Cm.karma :: !seen;
              Cm.Retry_now);
        }
      in
      let item = Item.v "x" in
      let finished = ref 0 in
      let body txn =
        for j = 1 to k do
          if j mod 2 = 1 then ignore (Atomically.read txn item)
          else Atomically.write txn item (Value.int j)
        done;
        incr finished;
        if !finished <= n then Atomically.Retry else Atomically.Done ()
      in
      let outcome = ref None in
      let setup mem recorder =
        let handle =
          Txn_api.instantiate (Registry.find_exn "tl-lock") mem recorder
            ~items:[ item ]
        in
        let scratch = Cm.scratch mem in
        [
          ( 1,
            fun () ->
              outcome :=
                Some
                  (Cm.atomically recording ~scratch ~seed:1 ~tm:"tl-lock"
                     handle ~pid:1 body) );
        ]
      in
      let poison = if poisoned then [ Schedule.Poison 1 ] else [] in
      ignore (Sim.replay setup (poison @ [ Schedule.Until_done 1 ]));
      let first = if poisoned then 1 else 0 in
      let expected =
        (if poisoned then [ 1 ] else [])
        @ List.init n (fun i -> first + (k * (i + 1)))
      in
      !outcome = Some (Cm.Committed ((), List.length expected))
      && List.rev !seen = expected)

let cm_tests =
  [
    Alcotest.test_case "immediate retry gives up inside the fault window"
      `Quick (fun () ->
        check "gave up" true
          (match run_under_spurious Cm.immediate with
          | Cm.Gave_up _ -> true
          | Cm.Committed _ -> false));
    Alcotest.test_case "backoff outlasts the fault window and commits"
      `Quick (fun () ->
        check "committed" true
          (match run_under_spurious Cm.backoff with
          | Cm.Committed ((), _) -> true
          | Cm.Gave_up _ -> false));
    Alcotest.test_case "policy decisions are deterministic per seed" `Quick
      (fun () ->
        let decide seed =
          Cm.backoff.Cm.decide
            { Cm.attempt = 3; karma = 0; rand = Chaos_prng.create seed }
        in
        check "same seed, same decision" true (decide 42 = decide 42));
    QCheck_alcotest.to_alcotest karma_law;
  ]

(* -- crash-closure ------------------------------------------------------ *)

let closure_tests =
  [
    Alcotest.test_case "cuts: crash steps plus quartiles, in range" `Quick
      (fun () ->
        check "deduplicated and bounded" true
          (Crash_closure.cuts ~crash_steps:[ 42; 42; 0; 100 ] ~last:100
          = [ 25; 42; 50; 75 ]));
    Alcotest.test_case "truncate_at keeps only events before the cut" `Quick
      (fun () ->
        let impl = Registry.find_exn "tl-lock" in
        let item = Item.v "x" in
        let setup mem recorder =
          let handle = Txn_api.instantiate impl mem recorder ~items:[ item ] in
          let client pid () = Atomically.run handle ~pid (bump item) in
          [ (1, client 1); (2, client 2) ]
        in
        let r =
          Sim.replay setup [ Schedule.Until_done 1; Schedule.Until_done 2 ]
        in
        let cut = Memory.step_count r.Sim.mem / 2 in
        let h = History.truncate_at r.Sim.history cut in
        check "nonempty" false (History.is_empty h);
        check "a proper prefix" true
          (History.length h < History.length r.Sim.history);
        check "all events at or before the cut" true
          (List.for_all (fun e -> Event.at e <= cut) (History.events h)));
    Alcotest.test_case "stock TM verdicts are crash-closed" `Quick (fun () ->
        let impl = Registry.find_exn "tl-lock" in
        let cell =
          Chaos_run.run_cell Chaos_run.small impl Fault.Crash_stop
            Cm.immediate
        in
        check_int "no violations" 0 cell.Chaos_run.closure_violations;
        check "crash actually landed" true (cell.Chaos_run.crashes >= 1));
  ]

let () =
  Alcotest.run "chaos"
    [
      ("atoms", atom_tests);
      ("crash", crash_tests);
      ("spurious", spurious_tests);
      ("poison", poison_tests);
      ("cm", cm_tests);
      ("closure", closure_tests);
    ]

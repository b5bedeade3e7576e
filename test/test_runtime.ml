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
            (Log_ref.of_log (Memory.log mem))
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
            (Log_ref.of_log (Memory.log r.Sim.mem))
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
            (Log_ref.of_log (Memory.log r.Sim.mem))
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

(* -- awaits ------------------------------------------------------------ *)

(* p1 awaits [o] = 1, then marks [after] with the response it got; p2
   writes 1 to [o] *)
let await_world ?(until = fun v -> Value.equal v (Value.int 1)) () =
  let mem = Memory.create () in
  let sched = Scheduler.create mem in
  let o = Memory.alloc mem ~name:"o" (Value.int 0) in
  let after = ref None in
  Scheduler.spawn sched ~pid:1 (fun () ->
      after := Some (Proc.await_t ~tid:None o Primitive.Read ~until));
  Scheduler.spawn sched ~pid:2 (fun () -> Proc.write o (Value.int 1));
  (mem, sched, o, after)

let await_req o = Some { Proc.oid = o; prim = Primitive.Read; tid = None }

(* the same await under [Sim]: p1 alone, awaiting object 0 *)
let await_setup until : Sim.setup =
 fun mem _ ->
  let o = Memory.alloc mem ~name:"o" (Value.int 0) in
  [ (1, fun () -> ignore (Proc.await_t ~tid:None o Primitive.Read ~until)) ]

let await_tests =
  [
    Alcotest.test_case "a failed attempt does not resume the process" `Quick
      (fun () ->
        let mem, sched, _, after = await_world () in
        for _ = 1 to 3 do
          check "stepped" true (Scheduler.step sched 1 = Scheduler.Stepped)
        done;
        check "code after the await not run" true (!after = None);
        check_int "three attempts logged" 3 (Memory.step_count mem);
        check "not finished" false (Scheduler.finished sched 1));
    Alcotest.test_case "pending keeps returning the await's request" `Quick
      (fun () ->
        let _, sched, o, _ = await_world () in
        ignore (Scheduler.step sched 1);
        check "after one attempt" true
          (Scheduler.pending sched 1 = await_req o);
        ignore (Scheduler.step sched 1);
        check "after two" true (Scheduler.pending sched 1 = await_req o);
        let c = Sim.start (await_setup (Fun.const false)) in
        for i = 1 to 3 do
          check "sim step progressed" true (Sim.step c 1);
          check (Printf.sprintf "sim pending after %d" i) true
            (Sim.pending c 1 = await_req (Oid.of_int 0))
        done);
    Alcotest.test_case "a successful attempt resumes with its response" `Quick
      (fun () ->
        let mem, sched, _, after = await_world () in
        ignore (Scheduler.step sched 1);
        ignore (Scheduler.run_solo sched 2 ~budget:10);
        check "still waiting" true (!after = None);
        check "stepped" true (Scheduler.step sched 1 = Scheduler.Stepped);
        check "resumed with the accepted response" true
          (!after = Some (Value.int 1));
        check "finished" true (Scheduler.finished sched 1);
        check_int "two attempts and the write" 3 (Memory.step_count mem));
    Alcotest.test_case "a resumed await fills its own slot" `Quick
      (fun () ->
        (* p2 runs between p1's failed attempt and its successful one, so
           p2's slot is current when the await resumes: p1's next access
           must still land in p1's own slot *)
        let mem = Memory.create () in
        let sched = Scheduler.create mem in
        let o = Memory.alloc mem ~name:"o" (Value.int 0) in
        let q = Memory.alloc mem ~name:"q" (Value.int 0) in
        let r = Memory.alloc mem ~name:"r" (Value.int 0) in
        let until v = Value.equal v (Value.int 1) in
        Scheduler.spawn sched ~pid:1 (fun () ->
            ignore (Proc.await_t ~tid:None o Primitive.Read ~until);
            Proc.write q (Value.int 7));
        Scheduler.spawn sched ~pid:2 (fun () ->
            Proc.write o (Value.int 1);
            ignore (Proc.read r));
        ignore (Scheduler.step sched 1);
        ignore (Scheduler.step sched 2);
        ignore (Scheduler.step sched 1);
        check "p1 pending on its write" true
          (Scheduler.pending sched 1
          = Some
              { Proc.oid = q; prim = Primitive.Write (Value.int 7); tid = None });
        check "p2 still pending on its read" true
          (Scheduler.pending sched 2
          = Some { Proc.oid = r; prim = Primitive.Read; tid = None });
        ignore (Scheduler.step sched 1);
        check "p1 wrote q" true (Value.equal (Memory.peek mem q) (Value.int 7));
        check "p1 finished" true (Scheduler.finished sched 1));
    Alcotest.test_case "release ends every suspended fiber, counting nothing"
      `Quick (fun () ->
        let before = Scheduler.live_fibers () in
        let crashes () =
          Metrics.sum_counters (Sink.metrics Sink.default) "sched_crash_total"
        in
        let crashes0 = crashes () in
        let mem, sched, _, after = await_world () in
        Scheduler.spawn sched ~pid:3 (fun () -> ());
        Scheduler.spawn sched ~pid:4 (fun () ->
            ignore (Proc.read 0);
            ignore (Proc.read 0));
        ignore (Scheduler.step sched 1);
        ignore (Scheduler.step sched 2);
        ignore (Scheduler.step sched 3);
        ignore (Scheduler.step sched 4);
        Scheduler.inject_crash sched 4;
        check_int "p1 suspended, p4 stopped while suspended" (before + 2)
          (Scheduler.live_fibers ());
        let steps = Memory.step_count mem in
        Scheduler.release sched;
        check_int "no fiber left" before (Scheduler.live_fibers ());
        check_int "no crash counted" crashes0 (crashes ());
        check_int "no step taken" steps (Memory.step_count mem);
        check "p1's code after the await never ran" true (!after = None);
        check "finished answers unchanged" true
          (List.map (Scheduler.finished sched) [ 1; 2; 3; 4 ]
          = [ false; true; true; false ]);
        check "p4 still an injected stop" true
          (Scheduler.crash_state sched 4 = Scheduler.Injected_stop);
        Scheduler.release sched;
        check_int "a second release is a no-op" before
          (Scheduler.live_fibers ()));
    Alcotest.test_case "inject_crash drops an awaiting process" `Quick
      (fun () ->
        let _, sched, _, after = await_world () in
        ignore (Scheduler.step sched 1);
        Scheduler.inject_crash sched 1;
        check "injected crash" true
          (match Scheduler.crashed sched 1 with
          | Some e -> Scheduler.injected e
          | None -> false);
        check "no pending request" true (Scheduler.pending sched 1 = None);
        check "step reports the crash" true
          (match Scheduler.step sched 1 with
          | Scheduler.Crashed e -> Scheduler.injected e
          | _ -> false);
        check "never resumed" true (!after = None));
    Alcotest.test_case "Steps (pid, 1) on an awaiting process takes one step"
      `Quick (fun () ->
        let mem, sched, _, _ = await_world () in
        let s = Schedule.session sched in
        let one = Schedule.Steps (1, 1) in
        check_int "first attempt" 1 (Schedule.feed_steps s one);
        for i = 2 to 4 do
          check_int "one step" 1 (Schedule.feed_steps s one);
          check_int "one more log entry" i (Memory.step_count mem)
        done);
    Alcotest.test_case "a raising predicate is the process's crash" `Quick
      (fun () ->
        let _, sched, _, after =
          await_world ~until:(fun _ -> failwith "until") ()
        in
        check "attempt stepped" true
          (Scheduler.step sched 1 = Scheduler.Stepped);
        check "failed with the predicate's exception" true
          (Scheduler.crashed sched 1 = Some (Failure "until"));
        check "never resumed" true (!after = None);
        let r =
          Sim.replay
            (await_setup (fun _ -> failwith "until"))
            [ Schedule.Until_done 1 ]
        in
        check "crashed stop" true
          (match r.Sim.report.Schedule.stop with
          | Schedule.Crashed (1, Failure m) -> m = "until"
          | _ -> false));
  ]

(* -- the spin fast-forward against stepping --------------------------- *)

(* The paper's seven transactions on a TM (the [pcl_tm trace] world).
   [stepped] installs a fault hook that never fires, which keeps every
   step on the one-at-a-time path: the oracle for the bulk append. *)
let txns_setup impl ~stepped : Sim.setup =
 fun mem recorder ->
  let handle = Txn_api.instantiate impl mem recorder ~items:Pcl_txns.items in
  if stepped then
    Memory.set_fault_hook mem (fun ~pid:_ ~tid:_ ~step:_ _ _ -> None);
  let outcomes = Hashtbl.create 8 in
  List.map
    (fun sp -> (sp.Static_txn.pid, Static_txn.program handle sp ~outcomes))
    Pcl_txns.specs

(* Seven processes awaiting on shared words, with every kind of failed
   attempt: reads, LL, failing try-locks and CASes change nothing, while a
   fetch-and-add attempt changes its word every time, so a bulk append of
   it would be wrong. *)
let spin_setup ~stepped : Sim.setup =
 fun mem _ ->
  if stepped then
    Memory.set_fault_hook mem (fun ~pid:_ ~tid:_ ~step:_ _ _ -> None);
  let ticket = Memory.alloc mem ~name:"ticket" (Value.int 0) in
  let flag = Memory.alloc mem ~name:"flag" (Value.int 0) in
  let lock = Memory.alloc mem ~name:"lock" Value.unit in
  let await oid prim until =
    ignore (Proc.await_t ~tid:None oid prim ~until)
  in
  let at_least k v = Value.to_int_exn v >= k in
  let is v r = Value.equal r (Value.int v) in
  [ (1, fun () -> await ticket (Primitive.Fetch_add 1) (at_least 300));
    (2, fun () -> await flag Primitive.Read (is 1));
    (3, fun () ->
        await ticket (Primitive.Fetch_add 1) (at_least 600);
        Proc.write flag (Value.int 1));
    (4, fun () ->
        ignore (Proc.try_lock ~pid:4 lock);
        await flag Primitive.Read (is 1);
        Proc.unlock ~pid:4 lock);
    (5, fun () ->
        await lock (Primitive.Try_lock 5) Value.to_bool_exn;
        Proc.unlock ~pid:5 lock);
    (6, fun () -> await flag (Primitive.Load_linked 6) (is 1));
    (7, fun () ->
        await flag
          (Primitive.Cas { expected = Value.int 1; desired = Value.int 2 })
          Value.to_bool_exn) ]

let counted = [ "mem_steps_total"; "mem_prim_total"; "tm_mem_prim_total" ]

let counter_values () =
  List.filter_map
    (fun (smp : Metrics.sample) ->
      match smp.value with
      | Metrics.VCounter n when List.mem smp.name counted ->
          Some ((smp.name, smp.labels), n)
      | _ -> None)
    (Metrics.snapshot (Sink.metrics Sink.default))

let stop_signature = function
  | Schedule.Completed -> `Completed
  | Schedule.Budget_exhausted stall -> `Stall stall
  | Schedule.Crashed (pid, e) -> `Crashed (pid, Printexc.to_string e)

(* everything a run leaves behind: the log, the history, [report] (its
   stop, tallies and crashes), the per-pid step counts and the step
   counters it moved since [before] *)
let signature before (r : Sim.result) report =
  let deltas =
    List.map
      (fun (k, n) -> (k, n - Option.value ~default:0 (List.assoc_opt k before)))
      (counter_values ())
  in
  ( Log_ref.of_log (Memory.log r.Sim.mem),
    Wire.print r.Sim.history,
    report,
    List.init 9 r.Sim.steps_of,
    deltas )

let run_signature ~budget setup atoms =
  let before = counter_values () in
  let r = Sim.replay ~budget setup atoms in
  let rep = r.Sim.report in
  signature before r
    ( stop_signature rep.Schedule.stop,
      rep.Schedule.steps_per_atom,
      rep.Schedule.crashes )

(* a mid-commit suspension, then solo segments and large quanta over the
   seven processes, with parks, unparks and crashes between them *)
let gen_spin_schedule =
  let open QCheck.Gen in
  let pid = int_range 1 7 in
  let atom =
    frequency
      [ (4, map (fun p -> Schedule.Until_done p) pid);
        (4, map2 (fun p n -> Schedule.Steps (p, n)) pid (int_range 20 2000));
        (2, map2 (fun p n -> Schedule.Steps (p, n)) pid (int_range 1 6));
        (1, map (fun p -> Schedule.Park p) pid);
        (1, map (fun p -> Schedule.Unpark p) pid);
        (1, map (fun p -> Schedule.Crash p) pid) ]
  in
  triple
    (map2 (fun p n -> Schedule.Steps (p, n)) pid (int_range 1 12))
    (list_size (1 -- 8) atom) (int_range 20 2000)

let worlds =
  spin_setup
  :: List.map (fun impl ~stepped -> txns_setup impl ~stepped) Registry.all

let fast_forward_law =
  QCheck.Test.make ~count:60
    ~name:"fast-forward = stepping: ten TMs and a spin world"
    (QCheck.make
       ~print:(fun (first, rest, budget) ->
         Printf.sprintf "budget %d: %s" budget
           (Schedule.to_string (first :: rest)))
       gen_spin_schedule)
    (fun (first, rest, budget) ->
      let atoms = first :: rest in
      List.for_all
        (fun world ->
          run_signature ~budget (world ~stepped:false) atoms
          = run_signature ~budget (world ~stepped:true) atoms)
        worlds)

(* -- a granted run against its single steps ------------------------- *)

(* The oracle of a granted run: each atom's steps fed to a cursor as
   [Steps (p, 1)] atoms, which grant no credit, and [Until_done p] as
   single steps until p finishes or its budget is spent.  A spent budget
   stops the schedule and a genuine crash in a solo segment reports no
   tally, as [Schedule.feed_steps] does for the solo segment; atoms after
   a stop are not fed.  Answers [run_signature]'s shape, with each atom's
   summed tally. *)
let single_step_signature ~budget setup atoms =
  let before = counter_values () in
  let c = Sim.start ~budget setup in
  let halted = ref false and stall = ref None in
  let feed a =
    let f = Sim.apply c a in
    if f.Schedule.halted then halted := true;
    f.Schedule.steps
  in
  let one p = feed (Schedule.Steps (p, 1)) in
  let rec steps p k n = if k = 0 then n else steps p (k - 1) (n + one p) in
  let rec solo p n = if n < budget && one p = 1 then solo p (n + 1) else n in
  let tally = function
    | Schedule.Steps (p, k) -> Some (steps p k 0)
    | Schedule.Until_done p -> (
        let n = solo p 0 in
        match Sim.crashed c p with
        | Some e when not (Scheduler.injected e) -> None
        | Some _ -> Some n
        | None ->
            if n = budget && not (Sim.finished c p) then begin
              halted := true;
              let log = Memory.log (Sim.snapshot ~flight:false c).Sim.mem in
              stall :=
                Some
                  { Schedule.stalled_pid = p;
                    last = Access_log.last_by_pid log p }
            end;
            Some n)
    | a -> Some (feed a)
  in
  let rec go acc = function
    | a :: rest when not !halted -> (
        match tally a with
        | Some n -> go (n :: acc) rest
        | None -> go acc rest)
    | _ -> List.rev acc
  in
  let tallies = go [] atoms in
  let r = Sim.snapshot ~flight:false c in
  Sim.release c;
  let rep = r.Sim.report in
  let stop =
    match !stall with
    | Some st -> `Stall st
    | None -> stop_signature rep.Schedule.stop
  in
  signature before r (stop, tallies, rep.Schedule.crashes)

(* quanta and solo segments short enough for the single-step oracle, with
   parks, unparks and crashes between them *)
let gen_granted_schedule =
  let open QCheck.Gen in
  let pid = int_range 1 7 in
  let atom =
    frequency
      [ (3, map (fun p -> Schedule.Until_done p) pid);
        (4, map2 (fun p n -> Schedule.Steps (p, n)) pid (int_range 2 150));
        (2, map2 (fun p n -> Schedule.Steps (p, n)) pid (int_range 1 4));
        (1, map (fun p -> Schedule.Park p) pid);
        (1, map (fun p -> Schedule.Unpark p) pid);
        (1, map (fun p -> Schedule.Crash p) pid) ]
  in
  pair (list_size (1 -- 8) atom) (int_range 10 300)

let granted_run_law =
  QCheck.Test.make ~count:60
    ~name:"a granted run = its single steps: ten TMs and a spin world"
    (QCheck.make
       ~print:(fun (atoms, budget) ->
         Printf.sprintf "budget %d: %s" budget (Schedule.to_string atoms))
       gen_granted_schedule)
    (fun (atoms, budget) ->
      List.for_all
        (fun world ->
          run_signature ~budget (world ~stepped:false) atoms
          = single_step_signature ~budget (world ~stepped:false) atoms)
        worlds)

(* A primitive that raises inside a granted run escapes the atom exactly
   as one the scheduler applies itself: the steps before it stay logged,
   and the process stays pending on it, uncrashed, until released.  Once
   p2 repairs the object, p1 moves on as if it had never been granted a
   run: its next step is the fetch-and-add, and a solo run finishes it. *)
let raising_run_tests =
  let setup : Sim.setup =
   fun mem _ ->
    let o = Memory.alloc mem ~name:"o" (Value.int 0) in
    let pr =
      Memory.alloc mem ~name:"pr" (Value.pair (Value.int 1) (Value.int 2))
    in
    [ (1, fun () ->
          ignore (Proc.read o);
          ignore (Proc.read o);
          ignore (Proc.fetch_add pr 1);
          ignore (Proc.read o);
          ignore (Proc.read o));
      (2, fun () -> Proc.write pr (Value.int 5)) ]
  in
  List.map
    (fun atom ->
      Alcotest.test_case
        (Printf.sprintf "a primitive raising under %s leaves p1 pending"
           (Schedule.to_string [ atom ]))
        `Quick (fun () ->
          let before = Scheduler.live_fibers () in
          let c = Sim.start setup in
          (match Sim.apply c atom with
          | exception Invalid_argument _ -> ()
          | _ -> Alcotest.fail "the raise did not escape Sim.apply");
          check_int "two steps logged" 2 (Sim.steps_taken c);
          check "not crashed" true (Sim.crashed c 1 = None);
          check "not finished" false (Sim.finished c 1);
          check_int "one fiber lives" (before + 1) (Scheduler.live_fibers ());
          check "p2 repairs the object" true (Sim.step c 2);
          check "p1 takes the fetch-and-add" true (Sim.step c 1);
          check_int "four steps logged" 4 (Sim.steps_taken c);
          check_int "p1 finishes solo" 2
            (Sim.apply c (Schedule.Until_done 1)).Schedule.steps;
          check "finished" true (Sim.finished c 1);
          Sim.release c;
          check_int "released" before (Scheduler.live_fibers ())))
    [ Schedule.Steps (1, 5); Schedule.Until_done 1 ]

(* A released world is garbage: nothing the scheduler keeps between runs,
   the current slot included, holds its memory. *)
let released_world_tests =
  let drop drive =
    let w = Weak.create 1 in
    let setup : Sim.setup =
     fun mem _ ->
      Weak.set w 0 (Some mem);
      let o = Memory.alloc mem ~name:"o" (Value.int 0) in
      [ (1, fun () -> while true do ignore (Proc.read o) done) ]
    in
    let c = Sim.start setup in
    drive c;
    Sim.release c;
    w
  in
  List.map
    (fun (name, drive) ->
      Alcotest.test_case
        (Printf.sprintf "a released world is collected after %s" name)
        `Quick (fun () ->
          let w = (Sys.opaque_identity drop) drive in
          Gc.full_major ();
          check "memory collected" false (Weak.check w 0)))
    [ ("single steps", fun c -> for _ = 1 to 5 do ignore (Sim.step c 1) done);
      ("granted runs", fun c -> ignore (Sim.apply c (Schedule.Steps (1, 5)))) ]

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
              match Log_ref.of_log (Memory.log r.Sim.mem) with
              | e :: _ -> e.Access_log.pid = 2
              | [] -> false)
        in
        check "witness" true (w <> None));
    Alcotest.test_case "counterexample is returned" `Quick (fun () ->
        let r =
          Explorer.for_all (counter_setup 2 2) ~pids:[ 1; 2 ] (fun r ->
              match Log_ref.of_log (Memory.log r.Sim.mem) with
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
      ("await", await_tests @ [ QCheck_alcotest.to_alcotest fast_forward_law ]);
      ( "granted-run",
        (QCheck_alcotest.to_alcotest granted_run_law :: raising_run_tests)
        @ released_world_tests );
      ("explorer", explorer_tests);
    ]

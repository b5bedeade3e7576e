(* Tests for the incremental engine's cursor API and the sleep-set
   partial-order reduction: fork/resume must agree with whole-schedule
   replay, and the reduced search must enumerate the same set of
   final-history verdicts as the naive DFS while visiting fewer nodes. *)

open Core

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* two independent counters, as in test_runtime *)
let counter_setup steps1 steps2 : Sim.setup =
 fun mem _recorder ->
  let o1 = Memory.alloc mem ~name:"c1" (Value.int 0) in
  let o2 = Memory.alloc mem ~name:"c2" (Value.int 0) in
  [
    (1, fun () -> for i = 1 to steps1 do Proc.write o1 (Value.int i) done);
    (2, fun () -> for i = 1 to steps2 do Proc.write o2 (Value.int i) done);
  ]

let sig_of (r : Sim.result) =
  List.map
    (fun (e : Access_log.entry) ->
      (e.Access_log.pid, Oid.to_int e.Access_log.oid))
    (Log_ref.of_log (Memory.log r.Sim.mem))

let cursor_tests =
  [
    Alcotest.test_case "steps_taken is the log length" `Quick (fun () ->
        let c = Sim.start (counter_setup 3 2) in
        check_int "zero at C0" 0 (Sim.steps_taken c);
        ignore (Sim.step c 1);
        ignore (Sim.step c 2);
        ignore (Sim.step c 1);
        check_int "three steps" 3 (Sim.steps_taken c);
        let r = Sim.snapshot ~flight:false c in
        check_int "matches log"
          (Access_log.length (Memory.log r.Sim.mem))
          (Sim.steps_taken c));
    Alcotest.test_case "step reports progress truthfully" `Quick (fun () ->
        let c = Sim.start (counter_setup 1 0) in
        check "first step progresses" true (Sim.step c 1);
        check "finished after its single write" true (Sim.finished c 1);
        check "no further progress" false (Sim.step c 1);
        (* an empty-bodied program finishes on being started: that first
           probe is progress (the finished flag flips), later ones not *)
        check "empty body start progresses" true (Sim.step c 2);
        check "then finished" true (Sim.finished c 2);
        check "and stays done" false (Sim.step c 2));
    Alcotest.test_case "fork resumes deterministically (vs replay)" `Quick
      (fun () ->
        let c = Sim.start (counter_setup 4 3) in
        ignore (Sim.step c 1);
        ignore (Sim.step c 2);
        ignore (Sim.step c 1);
        let f = Sim.fork c in
        check "fork is lazy" false (Sim.is_live f);
        (* diverge: the original continues with pid 2, the fork with 1 *)
        ignore (Sim.step c 2);
        ignore (Sim.step f 1);
        let rf = Sim.snapshot ~flight:false f in
        let rr = Sim.replay (counter_setup 4 3) (Sim.path f) in
        check "fork log = replay of its path" true (sig_of rf = sig_of rr);
        let ro = Sim.snapshot ~flight:false c in
        check "original undisturbed" true
          (sig_of ro = [ (1, 0); (2, 1); (1, 0); (2, 1) ]));
    Alcotest.test_case "fork of a fork replays the same world" `Quick
      (fun () ->
        let c = Sim.start (counter_setup 2 2) in
        ignore (Sim.step c 1);
        let f1 = Sim.fork c in
        let f2 = Sim.fork f1 in
        ignore (Sim.step f1 2);
        ignore (Sim.step f2 2);
        check "same continuation, same log" true
          (sig_of (Sim.snapshot ~flight:false f1)
          = sig_of (Sim.snapshot ~flight:false f2)));
  ]

(* The fork law: a random program of steps, spins, fed atoms and forks
   over a pool of cursors, on the stock writer/reader pair under a
   registry TM.  Every cursor must match a model of its executed atoms,
   and its world (step log, history, report) must equal [Sim.replay] of
   its own path — so a fork that shared its parent's buffer must see
   exactly its prefix, whatever the parent or a sibling fork appended
   since.  A fork re-materialized from each cursor's path, which feeds
   the path's runs of single steps as scheduler runs, must equal the
   replay too: every log column, the history, the report, each process's
   [finished] and [pending], and what the replay adds to
   [mem_steps_total], [sched_pid_steps_total] and [tm_mem_prim_total].

   [Step] and [Spin] move only a process that can move — unfinished,
   not crashed, not parked, in a running session — as the explorer
   does.  [Poke] calls [Sim.step] whatever the process's state: a step
   that cannot move it must leave the world, its report included,
   unchanged.  Only [Poke] reaches p3, whose program fails on being
   started: that step halts the execution, and the cursor's path must
   hold it, so that the replay halts too.  [Repeat] feeds
   [Steps (pid, 1)] through [Sim.apply] whatever the process's state, so
   a path also holds runs of atoms that took no step.  Spins dwell on tl-lock, norec and tl2-clock, whose
   readers await a lock.  Half the programs run under a fault hook that
   fails RMW steps spuriously, under which a spin may not be appended in
   bulk.

   Every program opens with a fixed head that forks a fork, advances a
   parent after forking it, and advances two forks of one parent; the
   random tail then mixes further operations. *)
type fork_op =
  | Fork of int  (* cursor *)
  | Step of int * int  (* cursor, pid choice *)
  | Spin of int * int * int  (* cursor, pid choice, steps *)
  | Repeat of int * int * int  (* cursor, pid, atoms *)
  | Poke of int * int * int  (* cursor, pid, steps *)
  | Apply of int * Schedule.atom  (* cursor, atom *)

let fork_law_head =
  [
    Step (0, 0); Fork 0; Fork 1; Step (0, 0); Fork 0; Step (1, 1);
    Step (3, 0); Step (2, 0);
  ]

let spinning = [ "tl-lock"; "norec"; "tl2-clock" ]
let law_tms = spinning @ List.map Registry.name Registry.all

let gen_atom =
  QCheck.Gen.(
    map
      (fun (kind, pid, n) : Schedule.atom ->
        match kind with
        | 0 -> Crash pid
        | 1 -> Park pid
        | 2 -> Unpark pid
        | 3 -> Poison pid
        | 4 -> Until_done pid
        | _ -> Steps (pid, n))
      (triple (int_range 0 6) (int_range 1 2) (int_range 0 12)))

let gen_fork_op =
  QCheck.Gen.(
    frequency
      [
        (3, map (fun k -> Fork k) small_nat);
        (6, map2 (fun k pid -> Step (k, pid)) small_nat (int_range 0 1));
        ( 3,
          map3
            (fun k pid n -> Spin (k, pid, n))
            small_nat (int_range 0 1) (int_range 2 30) );
        ( 1,
          map3
            (fun k pid n -> Repeat (k, pid, n))
            small_nat (int_range 1 2) (int_range 1 6) );
        ( 2,
          map3
            (fun k pid n -> Poke (k, pid, n))
            small_nat (int_range 1 3) (int_range 1 8) );
        (2, map2 (fun k a -> Apply (k, a)) small_nat gen_atom);
      ])

let gen_fork_program =
  QCheck.make
    QCheck.Gen.(
      triple
        (int_range 0 (List.length law_tms - 1))
        bool
        (list_size (0 -- 40) gen_fork_op))

(* every CAS, SC or try-lock taken at an even step index fails
   spuriously *)
let spurious (setup : Sim.setup) : Sim.setup =
 fun mem recorder ->
  Memory.set_fault_hook mem (fun ~pid:_ ~tid:_ ~step _ _ ->
      if step mod 2 = 0 then Some Memory.Spurious_fail else None);
  setup mem recorder

(* the step counters a world's steps advance, by label set *)
let step_counters () =
  List.filter_map
    (fun (s : Metrics.sample) ->
      match s.Metrics.value with
      | Metrics.VCounter n
        when List.mem s.Metrics.name
               [ "mem_steps_total"; "sched_pid_steps_total";
                 "tm_mem_prim_total" ] ->
          Some ((s.Metrics.name, s.Metrics.labels), n)
      | _ -> None)
    (Metrics.snapshot (Sink.metrics Sink.default))

(* [f ()] with what it added to each step counter *)
let counting f =
  let before = step_counters () in
  let x = f () in
  let added =
    List.filter_map
      (fun (key, n) ->
        let d = n - Option.value ~default:0 (List.assoc_opt key before) in
        if d = 0 then None else Some (key, d))
      (step_counters ())
  in
  (x, added)

(* a cursor of the pool and its model: executed atoms (newest first),
   whether its session has halted, and the pids it parked *)
type modelled = {
  cursor : Sim.cursor;
  atoms : Schedule.atom list;
  halted : bool;
  parked : int list;
}

let same_world (r : Sim.result) (r' : Sim.result) =
  Log_ref.of_log (Memory.log r.Sim.mem)
  = Log_ref.of_log (Memory.log r'.Sim.mem)
  && History.events r.Sim.history = History.events r'.Sim.history
  && r.Sim.report = r'.Sim.report

let fork_law_budget = 300

(* the stock pair, plus a p3 that fails on being started *)
let with_p3 (setup : Sim.setup) : Sim.setup =
 fun mem recorder ->
  setup mem recorder @ [ (3, fun () -> failwith "p3 fails on being started") ]

let run_fork_program (tm, faulty, ops) =
  let impl = Registry.find_exn (List.nth law_tms tm) in
  let setup = with_p3 (Explore_sweep.setup impl) in
  let setup = if faulty then spurious setup else setup in
  let budget = fork_law_budget in
  let pids = Explore_sweep.pids in
  let pool =
    ref
      [|
        { cursor = Sim.start ~budget setup; atoms = []; halted = false;
          parked = [] };
      |]
  in
  let movable m pid =
    (not m.halted)
    && (not (List.mem pid m.parked))
    && (not (Sim.finished m.cursor pid))
    && Sim.crashed m.cursor pid = None
  in
  (* a step that moved a process and left it crashed failed genuinely,
     which halts the execution *)
  let step m pid =
    if Sim.step m.cursor pid then
      {
        m with
        atoms = Schedule.Steps (pid, 1) :: m.atoms;
        halted = Sim.crashed m.cursor pid <> None;
      }
    else m
  in
  let apply m (atom : Schedule.atom) =
    let outcome = Sim.apply m.cursor atom in
    if m.halted then m
    else
      {
        m with
        atoms = atom :: m.atoms;
        halted = outcome.Schedule.halted;
        parked =
          (match atom with
          | Park pid -> pid :: m.parked
          | Unpark pid -> List.filter (( <> ) pid) m.parked
          | _ -> m.parked);
      }
  in
  let rec times i f m = if i = 0 then m else times (i - 1) f (f m) in
  List.iter
    (fun op ->
      let n = Array.length !pool in
      let update k f = !pool.(k mod n) <- f !pool.(k mod n) in
      match op with
      | Fork k ->
          let m = !pool.(k mod n) in
          let fork = { m with cursor = Sim.fork m.cursor } in
          pool := Array.append !pool [| fork |]
      | Step (k, choice) ->
          update k (fun m ->
              match List.filter (movable m) pids with
              | [] -> m
              | live -> step m (List.nth live (choice mod List.length live)))
      | Spin (k, choice, len) ->
          update k (fun m ->
              let pid = List.nth pids choice in
              let rec go m i =
                if i = 0 || not (movable m pid) then m
                else go (step m pid) (i - 1)
              in
              go m len)
      | Repeat (k, pid, len) ->
          update k (times len (fun m -> apply m (Schedule.Steps (pid, 1))))
      | Poke (k, pid, len) -> update k (times len (fun m -> step m pid))
      | Apply (k, atom) -> update k (fun m -> apply m atom))
    (fork_law_head @ ops);
  Array.for_all
    (fun m ->
      let c = m.cursor in
      let path = Sim.path c in
      let fork = Sim.fork c in
      let (), rebuilt = counting (fun () -> ignore (Sim.steps_taken fork)) in
      let r', replayed = counting (fun () -> Sim.replay ~budget setup path) in
      (* the cursor [Sim.replay] builds, for what a result does not carry *)
      let oracle = Sim.start ~budget setup in
      List.iter (fun a -> ignore (Sim.apply oracle a)) path;
      path = List.rev m.atoms
      && same_world (Sim.snapshot ~flight:false c) r'
      && same_world (Sim.snapshot ~flight:false fork) r'
      && rebuilt = replayed
      && List.for_all
           (fun pid ->
             Sim.finished fork pid = r'.Sim.finished pid
             && Sim.pending fork pid = Sim.pending oracle pid)
           pids)
    !pool

(* The run feed itself, on sessions: [Schedule.feed_run s pid k] leaves a
   session exactly as k feeds of [Steps (pid, 1)] — step log, history,
   report, total, stop, each process's state, the tick hook's calls and
   the step counters — between random atoms, on a world whose p1 may
   fail genuinely on being started or after its last step, so a run can
   be cut by a crash. *)
type feed_op = Atom of Schedule.atom | Run of int * int  (* pid, atoms *)

let gen_feed_program =
  QCheck.make
    QCheck.Gen.(
      quad
        (int_range 0 (List.length law_tms - 1))
        (int_range 0 2) bool
        (list_size (1 -- 30)
           (frequency
              [
                (1, map (fun a -> Atom a) gen_atom);
                ( 3,
                  map2 (fun pid k -> Run (pid, k)) (int_range 1 2)
                    (int_range 1 40) );
              ])))

let failing kind (setup : Sim.setup) : Sim.setup =
 fun mem recorder ->
  List.map
    (fun (pid, f) ->
      match (pid, kind) with
      | 1, 1 -> (pid, fun () -> failwith "p1 fails on being started")
      | 1, 2 ->
          ( pid,
            fun () ->
              f ();
              failwith "p1 fails after its last step" )
      | _ -> (pid, f))
    (setup mem recorder)

let run_feed_program (tm, kind, faulty, ops) =
  let impl = Registry.find_exn (List.nth law_tms tm) in
  let setup = failing kind (Explore_sweep.setup impl) in
  let setup = if faulty then spurious setup else setup in
  let world feed_run =
    let mem = Memory.create () in
    let recorder = Recorder.create () in
    let sched = Scheduler.create mem in
    List.iter
      (fun (pid, f) -> Scheduler.spawn sched ~pid f)
      (setup mem recorder);
    let s = Schedule.session ~budget:fork_law_budget sched in
    let ticks = ref [] in
    Schedule.set_tick s (fun n ->
        ticks := (n, Schedule.session_stopped s) :: !ticks);
    let (), added =
      counting (fun () ->
          List.iter
            (function
              | Atom a -> ignore (Schedule.feed_steps s a)
              | Run (pid, k) -> feed_run s pid k)
            ops)
    in
    ( Log_ref.of_log (Memory.log mem),
      History.events (Recorder.history recorder),
      Schedule.session_report s,
      Schedule.session_steps s,
      List.map
        (fun pid ->
          ( Scheduler.finished sched pid,
            Scheduler.crashed sched pid,
            Scheduler.pending sched pid ))
        Explore_sweep.pids,
      !ticks,
      added )
  in
  world Schedule.feed_run
  = world (fun s pid k ->
        for _ = 1 to k do
          ignore (Schedule.feed_steps s (Schedule.Steps (pid, 1)))
        done)

let fork_law_tests =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~count:150
         ~name:"fork law: every cursor = replay of its own path"
         gen_fork_program run_fork_program);
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~count:150
         ~name:"run feed: feed_run pid k = k feeds of one step"
         gen_feed_program run_feed_program);
  ]

let por_tests =
  [
    Alcotest.test_case "sleep sets prune independent interleavings" `Quick
      (fun () ->
        (* disjoint counters: every interleaving is equivalent, so the
           reduced search must enumerate strictly fewer than the naive
           C(5,3) = 10 complete executions — and count its prunes *)
        let naive =
          Explorer.explore (counter_setup 3 2) ~pids:[ 1; 2 ]
            ~on_execution:(fun _ -> ())
        in
        let reduced =
          Explorer.explore ~por:true (counter_setup 3 2) ~pids:[ 1; 2 ]
            ~on_execution:(fun _ -> ())
        in
        check_int "naive enumerates all" 10 naive.Explorer.executions;
        check "reduced enumerates fewer" true
          (reduced.Explorer.executions < naive.Explorer.executions);
        check "at least one survivor" true (reduced.Explorer.executions >= 1);
        check "prunes counted" true (reduced.Explorer.sleep_pruned > 0);
        check "complete" false reduced.Explorer.truncated);
    Alcotest.test_case "reduced search sees every final state" `Quick
      (fun () ->
        (* conflicting writers on one object: final value depends on
           order, so both final states must survive the reduction *)
        let setup : Sim.setup =
         fun mem _recorder ->
          let o = Memory.alloc mem ~name:"shared" (Value.int 0) in
          [
            (1, fun () -> Proc.write o (Value.int 1));
            (2, fun () -> Proc.write o (Value.int 2));
          ]
        in
        let finals por =
          let acc = ref [] in
          ignore
            (Explorer.explore ~por setup ~pids:[ 1; 2 ]
               ~on_execution:(fun r ->
                 let v =
                   Value.to_int (Memory.peek r.Sim.mem (Oid.of_int 0))
                 in
                 acc := v :: !acc));
          List.sort_uniq compare !acc
        in
        check "same final-state set" true (finals false = finals true));
    Alcotest.test_case "early stop is counted" `Quick (fun () ->
        let stats =
          Explorer.explore_until (counter_setup 3 3) ~pids:[ 1; 2 ]
            ~on_execution:(fun _ -> `Stop)
        in
        check "stopped early" true stats.Explorer.stopped_early;
        check_int "one execution" 1 stats.Explorer.executions;
        let full =
          Explorer.explore_until (counter_setup 2 2) ~pids:[ 1; 2 ]
            ~on_execution:(fun _ -> `Continue)
        in
        check "full search not early-stopped" false
          full.Explorer.stopped_early);
    Alcotest.test_case "exists stops at the first witness" `Quick (fun () ->
        (* the witness predicate is total, so the search must cut after
           exactly one execution rather than sweep all 10 *)
        let stats =
          Explorer.explore_until (counter_setup 3 2) ~pids:[ 1; 2 ]
            ~on_execution:(fun _ -> `Stop)
        in
        check "fewer than the full sweep" true
          (stats.Explorer.executions < 10);
        check "witness exists" true
          (Explorer.exists (counter_setup 3 2) ~pids:[ 1; 2 ] (fun _ -> true)
          <> None));
  ]

(* The load-bearing soundness check: on every registered TM, the reduced
   sweep of the stock writer/reader pair classifies its executions into
   exactly the same set of strongest-condition verdicts as the naive DFS
   — DPOR skips interleavings, never outcomes. *)
let equivalence_tests =
  [
    Alcotest.test_case "DPOR verdict set = naive verdict set (8 TMs)" `Slow
      (fun () ->
        let total_naive = ref 0 and total_por = ref 0 in
        List.iter
          (fun impl ->
            let (module M : Tm_intf.S) = impl in
            let rows_n, st_n = Explore_sweep.run ~por:false impl in
            let rows_p, st_p = Explore_sweep.run ~por:true impl in
            let names rows = List.map fst rows in
            Alcotest.(check (list string))
              (M.name ^ ": verdict sets agree")
              (names rows_n) (names rows_p);
            check (M.name ^ ": no more nodes than naive") true
              (st_p.Explorer.nodes <= st_n.Explorer.nodes);
            total_naive := !total_naive + st_n.Explorer.nodes;
            total_por := !total_por + st_p.Explorer.nodes)
          Registry.all;
        check "strictly fewer nodes in aggregate" true
          (!total_por < !total_naive));
  ]

(* The stock DPOR sweep of every TM, pinned as `pcl_tm explore --json`
   prints it: profile rows and search statistics. *)
let golden_tests =
  [
    Alcotest.test_case "explore --json rows match explore.golden.jsonl"
      `Slow (fun () ->
        let golden =
          In_channel.with_open_text "explore.golden.jsonl" In_channel.input_all
        in
        let rows =
          List.map
            (fun impl ->
              Obs_json.to_string
                (Explore_sweep.row_json ~tm:(Registry.name impl) ~seed:1
                   (Explore_sweep.run ~por:true impl)))
            Registry.all
        in
        Alcotest.(check (list string))
          "rows"
          (String.split_on_char '\n' (String.trim golden))
          rows);
  ]

let () =
  Alcotest.run "explorer"
    [
      ("cursor", cursor_tests);
      ("fork-law", fork_law_tests);
      ("por", por_tests);
      ("equivalence", equivalence_tests);
      ("golden", golden_tests);
    ]

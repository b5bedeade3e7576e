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

(* The fork law: a random program of steps and forks over a pool of
   cursors, on the stock writer/reader pair under a registry TM.  Every
   cursor must match a model of its executed atoms, and its world (step
   log, history, report) must equal [Sim.replay] of its own path — so a
   fork that shared its parent's buffer must see exactly its prefix,
   whatever the parent or a sibling fork appended since.  Programs step
   only unfinished processes, as the explorer does: a no-op step is
   tallied by a live session's report but is not part of the path.

   Every program opens with a fixed head that forks a fork, advances a
   parent after forking it, and advances two forks of one parent; the
   random tail then mixes further steps and forks. *)
type fork_op = Step of int * int | Fork of int  (* cursor, pid choice *)

let fork_law_head =
  [
    Step (0, 0); Fork 0; Fork 1; Step (0, 0); Fork 0; Step (1, 1);
    Step (3, 0); Step (2, 0);
  ]

let gen_fork_program =
  QCheck.(
    pair (int_range 0 (List.length Registry.all - 1))
      (list_of_size Gen.(0 -- 40)
         (map
            (fun (fork, k, pid) -> if fork = 0 then Fork k else Step (k, pid))
            (triple (int_range 0 3) small_nat (int_range 0 1)))))

let run_fork_program (tm, ops) =
  let setup = Explore_sweep.setup (List.nth Registry.all tm) in
  (* the pool: each cursor with its executed atoms, newest first *)
  let pool = ref [| (Sim.start setup, []) |] in
  List.iter
    (fun op ->
      let n = Array.length !pool in
      match op with
      | Fork k ->
          let c, atoms = !pool.(k mod n) in
          pool := Array.append !pool [| (Sim.fork c, atoms) |]
      | Step (k, choice) -> (
          let c, atoms = !pool.(k mod n) in
          match
            List.filter (fun p -> not (Sim.finished c p)) Explore_sweep.pids
          with
          | [] -> ()
          | live ->
              let pid = List.nth live (choice mod List.length live) in
              if Sim.step c pid then
                !pool.(k mod n) <- (c, Schedule.Steps (pid, 1) :: atoms)))
    (fork_law_head @ ops);
  Array.for_all
    (fun (c, atoms) ->
      let path = Sim.path c in
      let r = Sim.snapshot ~flight:false c in
      let r' = Sim.replay setup path in
      path = List.rev atoms
      && Log_ref.of_log (Memory.log r.Sim.mem)
         = Log_ref.of_log (Memory.log r'.Sim.mem)
      && History.events r.Sim.history = History.events r'.Sim.history
      && r.Sim.report = r'.Sim.report)
    !pool

let fork_law_tests =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~count:150
         ~name:"fork law: every cursor = replay of its own path"
         gen_fork_program run_fork_program);
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

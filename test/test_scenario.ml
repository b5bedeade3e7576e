(* Tests for the scenario catalogue (lib/scenario): splitmix64
   known-answer vectors and the derive-collision law the per-cell seeding
   rests on, the strict catalogue loader (accept/reject cases), the
   crash-contained conformance runner, row determinism and the resume
   journal codec. *)

open Core

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

(* -- splitmix64 known-answer vectors ------------------------------------ *)

(* Reference outputs of splitmix64 for raw initial states 0, 42 and
   0x123456789ABCDEF.  [Chaos_prng.create seed] sets the raw state to
   [seed lxor 0x9E3779B9], so the seed that produces raw state [s] is
   [s lxor 0x9E3779B9]. *)
let kat_vectors =
  [
    ( 0,
      [
        0xE220A8397B1DCDAFL;
        0x6E789E6AA1B965F4L;
        0x06C45D188009454FL;
        0xF88BB8A8724C81ECL;
        0x1B39896A51A8749BL;
      ] );
    ( 42,
      [
        0xBDD732262FEB6E95L;
        0x28EFE333B266F103L;
        0x47526757130F9F52L;
        0x581CE1FF0E4AE394L;
        0x09BC585A244823F2L;
      ] );
    ( 0x123456789ABCDEF,
      [
        0x157A3807A48FAA9DL;
        0xD573529B34A1D093L;
        0x2F90B72E996DCCBEL;
        0xA2D419334C4667ECL;
        0x01404CE914938008L;
      ] );
  ]

let prng_tests =
  [
    Alcotest.test_case "splitmix64 matches the reference vectors" `Quick
      (fun () ->
        List.iter
          (fun (state, expected) ->
            let t = Chaos_prng.create (state lxor 0x9E3779B9) in
            List.iteri
              (fun i want ->
                let got = Chaos_prng.next_int64 t in
                if got <> want then
                  Alcotest.failf "state %d output %d: got %Lx, want %Lx"
                    state i got want)
              expected)
          kat_vectors);
    Alcotest.test_case "next is non-negative" `Quick (fun () ->
        let t = Chaos_prng.create 0 in
        for _ = 1 to 1000 do
          check "non-negative" true (Chaos_prng.next t >= 0)
        done);
    Alcotest.test_case "derive is deterministic and rejects negatives"
      `Quick (fun () ->
        check_int "stable" (Chaos_prng.derive 7 3) (Chaos_prng.derive 7 3);
        check "distinct children" true
          (Chaos_prng.derive 7 3 <> Chaos_prng.derive 7 4);
        match Chaos_prng.derive 7 (-1) with
        | exception Invalid_argument _ -> ()
        | _ -> Alcotest.fail "derive accepted a negative index");
  ]

(* the law the per-cell sub-seeding rests on: for any base, the derived
   child seeds never collide within a run-sized fan-out *)
let derive_no_collision =
  QCheck.Test.make ~count:200
    ~name:"derived per-segment seeds never collide"
    QCheck.(pair small_signed_int (int_bound 300))
    (fun (base, n) ->
      let seeds = List.init (n + 2) (fun k -> Chaos_prng.derive base k) in
      List.length (List.sort_uniq compare seeds) = List.length seeds)

(* -- the catalogue loader ----------------------------------------------- *)

let write_catalogue body =
  let path = Filename.temp_file "scenario" ".json" in
  let oc = open_out path in
  output_string oc body;
  close_out oc;
  path

let load body =
  let path = write_catalogue body in
  let r = Scenario.load_file path in
  Sys.remove path;
  r

let minimal id =
  Printf.sprintf
    {|{"id":%S,"family":"uniform","expect":{"verdict":"any","stop":"any"}}|}
    id

(* the tests run from _build/default/test; reach back to the source tree,
   or to the copy the test rule depends on *)
let catalogue_dir () =
  List.find_opt Sys.file_exists
    [ "../../../scenarios"; "../scenarios"; "scenarios" ]

let committed_catalogue () =
  match catalogue_dir () with
  | None -> Alcotest.fail "the committed catalogue is missing"
  | Some dir -> (
      match Scenario.load_dir dir with
      | Ok scenarios -> scenarios
      | Error e -> Alcotest.fail e)

let catalogue scenarios =
  Printf.sprintf {|{"schema":1,"scenarios":[%s]}|}
    (String.concat "," scenarios)

let expect_reject what body =
  match load body with
  | Ok _ -> Alcotest.failf "loader accepted %s" what
  | Error msg -> check (what ^ " error is descriptive") true (msg <> "")

let loader_tests =
  [
    Alcotest.test_case "minimal scenario parses with defaults" `Quick
      (fun () ->
        match load (catalogue [ minimal "t1" ]) with
        | Error e -> Alcotest.fail e
        | Ok [ s ] ->
            check_string "id" "t1" s.Scenario.id;
            check_int "procs default" 3 s.Scenario.procs;
            check_int "txns default" 3 s.Scenario.txns_per_proc;
            check_int "keys default" 4 s.Scenario.keys;
            check_int "rounds default" 40 s.Scenario.rounds;
            check_int "budget default" 30000 s.Scenario.budget;
            check_int "read_pct default" 0 s.Scenario.read_pct;
            check "no quarantine" false s.Scenario.quarantine;
            check "all tms" true (s.Scenario.tms = [])
        | Ok l -> Alcotest.failf "expected 1 scenario, got %d" (List.length l));
    Alcotest.test_case "read-mostly defaults read_pct to 90" `Quick
      (fun () ->
        match
          load
            (catalogue
               [
                 {|{"id":"rm","family":"read-mostly","expect":{"verdict":"any","stop":"any"}}|};
               ])
        with
        | Ok [ s ] -> check_int "read_pct" 90 s.Scenario.read_pct
        | Ok _ | Error _ -> Alcotest.fail "read-mostly scenario rejected");
    Alcotest.test_case "loader rejects malformed catalogues" `Quick
      (fun () ->
        expect_reject "an unknown field"
          (catalogue
             [
               {|{"id":"x","family":"uniform","bogus":1,"expect":{"verdict":"any","stop":"any"}}|};
             ]);
        expect_reject "an unknown family"
          (catalogue
             [
               {|{"id":"x","family":"gaussian","expect":{"verdict":"any","stop":"any"}}|};
             ]);
        expect_reject "an unknown TM name"
          (catalogue
             [
               {|{"id":"x","family":"uniform","tms":["no-such-tm"],"expect":{"verdict":"any","stop":"any"}}|};
             ]);
        expect_reject "an unknown CM policy"
          (catalogue
             [
               {|{"id":"x","family":"uniform","cms":["no-such-cm"],"expect":{"verdict":"any","stop":"any"}}|};
             ]);
        expect_reject "an unknown checker verdict"
          (catalogue
             [
               {|{"id":"x","family":"uniform","expect":{"verdict":"no-such-checker","stop":"any"}}|};
             ]);
        expect_reject "a missing expect"
          (catalogue [ {|{"id":"x","family":"uniform"}|} ]);
        expect_reject "an unknown fault plan"
          (catalogue
             [
               {|{"id":"x","family":"uniform","fault":"meteor","expect":{"verdict":"any","stop":"any"}}|};
             ]);
        expect_reject "a duplicate id"
          (catalogue [ minimal "dup"; minimal "dup" ]);
        expect_reject "a wrong schema version"
          {|{"schema":2,"scenarios":[]}|};
        expect_reject "unparseable JSON" "{nope");
    Alcotest.test_case "load_files rejects cross-file duplicate ids" `Quick
      (fun () ->
        let a = write_catalogue (catalogue [ minimal "same" ]) in
        let b = write_catalogue (catalogue [ minimal "same" ]) in
        let r = Scenario.load_files [ a; b ] in
        Sys.remove a;
        Sys.remove b;
        match r with
        | Ok _ -> Alcotest.fail "cross-file duplicate id accepted"
        | Error _ -> ());
    Alcotest.test_case "to_json round-trips through the loader" `Quick
      (fun () ->
        match load (catalogue [ minimal "rt" ]) with
        | Ok [ s ] -> (
            let body =
              Printf.sprintf {|{"schema":1,"scenarios":[%s]}|}
                (Obs_json.to_string (Scenario.to_json s))
            in
            match load body with
            | Ok [ s' ] -> check "round-trip" true (s = s')
            | Ok _ | Error _ ->
                Alcotest.fail "serialized scenario rejected")
        | Ok _ | Error _ -> Alcotest.fail "setup scenario rejected");
    Alcotest.test_case "the committed catalogue loads and is large enough"
      `Quick (fun () ->
        match catalogue_dir () with
        | None -> ()
        | Some dir -> (
            match Scenario.load_dir dir with
            | Error e -> Alcotest.fail e
            | Ok scenarios ->
                check "catalogue holds at least 60 scenarios" true
                  (List.length scenarios >= 60)));
  ]

(* -- the conformance runner --------------------------------------------- *)

let scenario ?(fault = Fault.Baseline) ?(tms = [ "tl-lock" ])
    ?(cms = [ "immediate" ]) ?(verdict = "any") ?(stop = "any")
    ?(lint = false) ?(min_commit_pct = 0) ?(quarantine = false) id =
  {
    Scenario.id;
    describe = "";
    family = Scenario.Uniform;
    procs = 2;
    txns_per_proc = 2;
    ops_per_txn = 2;
    keys = 3;
    read_pct = 0;
    fault;
    tms;
    cms;
    rounds = 12;
    quantum = 4;
    budget = 30000;
    expect = { Scenario.verdict; stop; lint; min_commit_pct };
    quarantine;
  }

let runner_tests =
  [
    Alcotest.test_case "a healthy cell passes" `Quick (fun () ->
        let s = scenario ~verdict:"claim" ~stop:"completed" "ok" in
        let r = Scenario_run.run_row ~inject:Scenario_run.No_inject ~seed:1 s in
        check_string "status" "pass" r.Scenario_run.status;
        check_int "cells" 1 r.Scenario_run.cells;
        check_int "failed" 0 r.Scenario_run.failed);
    Alcotest.test_case "an injected crash is contained and attributed"
      `Quick (fun () ->
        let s = scenario "crashy" in
        let r =
          Scenario_run.run_row ~inject:Scenario_run.Inject_crash ~seed:1 s
        in
        check_string "status" "fail" r.Scenario_run.status;
        match r.Scenario_run.failures with
        | [ c ] ->
            check "reason crash" true (c.Scenario_run.reason = Some "crash")
        | l -> Alcotest.failf "expected 1 failure, got %d" (List.length l));
    Alcotest.test_case "an injected stall is a timeout failure" `Quick
      (fun () ->
        (* large enough that the shrunken stall budget cannot cover it *)
        let s =
          {
            (scenario "stally") with
            Scenario.txns_per_proc = 20;
            ops_per_txn = 8;
            rounds = 60;
          }
        in
        let r =
          Scenario_run.run_row ~inject:Scenario_run.Inject_stall ~seed:1 s
        in
        check_string "status" "fail" r.Scenario_run.status;
        match r.Scenario_run.failures with
        | [ c ] ->
            check "reason timeout" true
              (c.Scenario_run.reason = Some "timeout")
        | l -> Alcotest.failf "expected 1 failure, got %d" (List.length l));
    Alcotest.test_case "injections hit only the first cell" `Quick
      (fun () ->
        let s = scenario ~cms:[ "immediate"; "backoff" ] "spread" in
        let r =
          Scenario_run.run_row ~inject:Scenario_run.Inject_crash ~seed:1 s
        in
        check_int "cells" 2 r.Scenario_run.cells;
        check_int "one failure" 1 r.Scenario_run.failed;
        check_int "one pass" 1 r.Scenario_run.passed);
    Alcotest.test_case "quarantine downgrades a failure" `Quick (fun () ->
        let s = scenario ~quarantine:true "known-bad" in
        let r =
          Scenario_run.run_row ~inject:Scenario_run.Inject_crash ~seed:1 s
        in
        check_string "status" "quarantine" r.Scenario_run.status);
    Alcotest.test_case "an impossible commit floor fails with commits"
      `Quick (fun () ->
        (* tl-lock under a crash fault with every transaction required to
           commit: the crashed process's transactions cannot commit *)
        let s =
          scenario ~fault:Fault.Crash_stop ~stop:"any" ~min_commit_pct:100
            "floor"
        in
        let r = Scenario_run.run_row ~inject:Scenario_run.No_inject ~seed:1 s in
        check_string "status" "fail" r.Scenario_run.status;
        match r.Scenario_run.failures with
        | [ c ] ->
            check "reason commits" true
              (c.Scenario_run.reason = Some "commits")
        | l -> Alcotest.failf "expected 1 failure, got %d" (List.length l));
    Alcotest.test_case "a crash-injected row ends every fiber" `Quick
      (fun () ->
        (* crash-stopped processes keep their fibers until the cell's
           world is released: the count of live fibers comes back *)
        let s =
          scenario ~fault:Fault.Crash_stop ~tms:[ "tl-lock"; "norec"; "dstm" ]
            ~cms:[ "immediate"; "backoff" ] "fibers"
        in
        let before = Scheduler.live_fibers () in
        ignore (Scenario_run.run_row ~inject:Scenario_run.No_inject ~seed:1 s);
        check_int "live fibers" before (Scheduler.live_fibers ()));
    Alcotest.test_case "rows are deterministic under a fixed seed" `Quick
      (fun () ->
        let s =
          scenario ~tms:[] ~cms:[ "immediate" ] ~verdict:"claim" "det"
        in
        let s = { s with Scenario.tms = [] } in
        let run () =
          Obs_json.to_string
            (Scenario_run.row_json
               (Scenario_run.run_row ~inject:Scenario_run.No_inject ~seed:5
                  s))
        in
        check_string "byte-identical rows" (run ()) (run ()));
    Alcotest.test_case "cells_of expands empty selections to everything"
      `Quick (fun () ->
        let s = scenario ~tms:[] ~cms:[] "all" in
        check_int "tms x cms"
          (List.length Registry.all * List.length Cm.all)
          (List.length (Scenario_run.cells_of s)));
  ]

(* -- the committed catalogue at the default sweep seed --------------------- *)

let catalogue_tests =
  [
    Alcotest.test_case "unreached verdicts are counted" `Slow (fun () ->
        Sink.reset Sink.default;
        List.iter
          (fun s ->
            ignore
              (Scenario_run.run_row ~inject:Scenario_run.No_inject ~seed:1 s))
          (committed_catalogue ());
        let m = Sink.metrics Sink.default in
        (* blocking-crash-wedge-quarantined's 13-transaction core on
           tl-lock/immediate *)
        check_int "cores over the cap" 1
          (Metrics.sum_counters m "chaos_closure_skipped_total");
        (* candidate-weak-adaptive-uniform's four cells *)
        check_int "undecided weak-adaptive verdicts" 4
          (Metrics.counter_value
             (Metrics.counter m
                ~labels:[ ("checker", "weak-adaptive") ]
                "conform_verdict_out_of_budget_total"));
        check_int "undecided verdicts" 4
          (Metrics.sum_counters m "conform_verdict_out_of_budget_total"));
    Alcotest.test_case
      "candidate-weak-adaptive-uniform is decided only past its node budget"
      `Slow (fun () ->
        (* the scenario calls itself a witness that the schedule satisfies
           weak adaptive consistency, but its cells pass only because an
           undecided verdict passes a cell: every core is out of budget at
           the runner's 60,000 nodes and Unsat once the search can finish,
           as every stronger condition already is *)
        let s =
          List.find
            (fun (s : Scenario.t) ->
              s.Scenario.id = "candidate-weak-adaptive-uniform")
            (committed_catalogue ())
        in
        let rec stronger name =
          List.concat_map
            (fun (s, w) -> if w = name then s :: stronger s else [])
            Checkers.edges
        in
        let stronger = List.sort_uniq compare (stronger "weak-adaptive") in
        check "weak adaptive has stronger conditions" true (stronger <> []);
        List.iteri
          (fun idx (impl, (policy : Cm.policy)) ->
            let r, _ =
              Scenario_run.simulate s ~budget:s.Scenario.budget
                ~seed:(Scenario_run.cell_seed ~seed:1 s idx)
                impl policy
            in
            let core = Crash_closure.core r.Sim.history in
            let cm = policy.Cm.name in
            check_int (cm ^ ": transactions") 9 (History.txn_count core);
            check_int (cm ^ ": events") 144 (History.length core);
            check (cm ^ ": out of budget at 60,000") true
              (Weak_adaptive.check ~budget:60_000 core = Spec.Out_of_budget);
            List.iter
              (fun name ->
                check
                  (Printf.sprintf "%s: %s unsat" cm name)
                  true
                  ((Checkers.find_exn name).Spec.check ~budget:60_000 core
                  = Spec.Unsat))
              stronger;
            let decided_at =
              if cm = "polite" || cm = "karma" then 600_000 else 6_000_000
            in
            check
              (Printf.sprintf "%s: unsat at %d" cm decided_at)
              true
              (Weak_adaptive.check ~budget:decided_at core = Spec.Unsat))
          (Scenario_run.cells_of s));
  ]

(* -- the resume journal ------------------------------------------------- *)

let journal_tests =
  [
    Alcotest.test_case "journal_load round-trips rows and drops torn lines"
      `Quick (fun () ->
        let s = scenario "j1" in
        let row =
          Scenario_run.run_row ~inject:Scenario_run.No_inject ~seed:1 s
        in
        let line = Obs_json.to_string (Scenario_run.row_json row) in
        let path = Filename.temp_file "journal" ".jsonl" in
        let oc = open_out path in
        output_string oc (line ^ "\n");
        output_string oc "{\"schema\":1,\"type\":\"conf";
        (* a write cut short by the interrupt *)
        close_out oc;
        let entries = Scenario_run.journal_load path in
        Sys.remove path;
        match entries with
        | [ (id, status, raw) ] ->
            check_string "id" "j1" id;
            check_string "status" "pass" status;
            check_string "raw line preserved" line raw
        | l -> Alcotest.failf "expected 1 entry, got %d" (List.length l));
    Alcotest.test_case "journal_load of a missing file is empty" `Quick
      (fun () ->
        check "empty" true
          (Scenario_run.journal_load "/nonexistent/journal" = []));
  ]

(* -- conform's executions ------------------------------------------------ *)

(* One line per scenario of the committed catalogue at seed 1: the MD5 of
   each cell's stop, step count, commits, log and history, in cell order.
   conform.golden.jsonl pins only each row's pass and fail counts; this
   pins the executions they are judged on.  A run of identical log
   entries (a spin appended in bulk) is written once with its length. *)
let execution_digest (s : Scenario.t) =
  let b = Buffer.create 65536 in
  let entry log i =
    Printf.sprintf "%d %d %d %s %s %b" (Access_log.pid_at log i)
      (Access_log.tid_int_at log i)
      (Oid.to_int (Access_log.oid_at log i))
      (Primitive.show (Access_log.prim_at log i))
      (Value.to_string (Access_log.response_at log i))
      (Access_log.changed_at log i)
  in
  let same log i j =
    Access_log.pid_at log i = Access_log.pid_at log j
    && Access_log.tid_int_at log i = Access_log.tid_int_at log j
    && Oid.equal (Access_log.oid_at log i) (Access_log.oid_at log j)
    && Primitive.equal (Access_log.prim_at log i) (Access_log.prim_at log j)
    && Value.equal (Access_log.response_at log i) (Access_log.response_at log j)
    && Access_log.changed_at log i = Access_log.changed_at log j
  in
  List.iteri
    (fun idx (impl, policy) ->
      let seed = Scenario_run.cell_seed ~seed:1 s idx in
      match
        Scenario_run.simulate s ~budget:s.Scenario.budget ~seed impl policy
      with
      | exception e -> Printf.bprintf b "raised %s\n" (Printexc.to_string e)
      | r, commits ->
          let log = Memory.log r.Sim.mem in
          let n = Access_log.length log in
          Printf.bprintf b "%s steps %d commits %d\n"
            (Schedule.stop_to_string r.Sim.report.Schedule.stop)
            n commits;
          let i = ref 0 in
          while !i < n do
            let j = ref (!i + 1) in
            while !j < n && same log !i !j do incr j done;
            Printf.bprintf b "%s x%d\n" (entry log !i) (!j - !i);
            i := !j
          done;
          Buffer.add_string b (Wire.print r.Sim.history))
    (Scenario_run.cells_of s);
  Digest.to_hex (Digest.string (Buffer.contents b))

let execution_tests =
  [
    Alcotest.test_case "seed-1 executions match conform-exec.golden.txt"
      `Slow (fun () ->
        let golden =
          In_channel.with_open_text "conform-exec.golden.txt"
            In_channel.input_all
        in
        let got =
          List.map
            (fun s -> s.Scenario.id ^ " " ^ execution_digest s)
            (committed_catalogue ())
        in
        let want = String.split_on_char '\n' (String.trim golden) in
        check_int "one line per scenario" (List.length want)
          (List.length got);
        List.iter2 (check_string "scenario executions") want got);
  ]

let () =
  Alcotest.run "scenario"
    [
      ("prng", prng_tests);
      ("prng-laws", [ QCheck_alcotest.to_alcotest derive_no_collision ]);
      ("loader", loader_tests);
      ("runner", runner_tests);
      ("catalogue", catalogue_tests);
      ("journal", journal_tests);
      ("executions", execution_tests);
    ]

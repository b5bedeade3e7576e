(* Tests for the workload generator / round-robin driver and the progress
   profiler (tm_probe). *)

open Core

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let workload_tests =
  [
    Alcotest.test_case "all transactions commit on every TM" `Quick
      (fun () ->
        List.iter
          (fun impl ->
            let (module M : Tm_intf.S) = impl in
            let cfg =
              { Workload.default with Workload.n_procs = 3; txns_per_proc = 10 }
            in
            let s = Workload.run impl cfg in
            check (M.name ^ " completed") true s.Workload.completed;
            check_int (M.name ^ " commits") 30 s.Workload.commits)
          Registry.all);
    Alcotest.test_case "pram takes zero steps" `Quick (fun () ->
        let s = Workload.run (Registry.find_exn "pram-local") Workload.default in
        check_int "steps" 0 s.Workload.steps);
    Alcotest.test_case "deterministic for a fixed seed" `Quick (fun () ->
        let impl = Registry.find_exn "dstm" in
        let cfg = { Workload.default with Workload.conflict_pct = 50 } in
        let s1 = Workload.run impl cfg and s2 = Workload.run impl cfg in
        check "same stats" true (s1 = s2));
    Alcotest.test_case "different seeds differ under conflict" `Quick
      (fun () ->
        let impl = Registry.find_exn "dstm" in
        let cfg = { Workload.default with Workload.conflict_pct = 100 } in
        let s1 = Workload.run impl cfg in
        let s2 = Workload.run impl { cfg with Workload.seed = 2 } in
        (* not a strong property, but the generator must actually depend
           on the seed *)
        check "stats differ" true (s1 <> s2));
    Alcotest.test_case "no disjoint contention for strict-DAP TMs at 0%"
      `Quick (fun () ->
        List.iter
          (fun name ->
            let s =
              Workload.run (Registry.find_exn name)
                { Workload.default with Workload.conflict_pct = 0 }
            in
            check_int (name ^ " disjoint contentions") 0
              s.Workload.disjoint_contentions)
          (Contract_law.names Contract_law.strict_dap));
    Alcotest.test_case "si-clock contends even at 0% conflict" `Quick
      (fun () ->
        let s =
          Workload.run (Registry.find_exn "si-clock")
            { Workload.default with Workload.conflict_pct = 0 }
        in
        check "clock contention" true (s.Workload.disjoint_contentions > 0));
    Alcotest.test_case "conflict raises aborts on optimistic TMs" `Quick
      (fun () ->
        let s0 =
          Workload.run (Registry.find_exn "dstm")
            { Workload.default with Workload.conflict_pct = 0; n_procs = 4 }
        in
        let s100 =
          Workload.run (Registry.find_exn "dstm")
            { Workload.default with Workload.conflict_pct = 100; n_procs = 4 }
        in
        check_int "no aborts disjoint" 0 s0.Workload.aborts;
        check "aborts under conflict" true (s100.Workload.aborts > 0));
    (* a transaction's data set is what it invoked: one aborted mid-write
       conflicts with the lock holder it hit, so a TM whose P leg holds
       shows no disjoint contention anywhere on the scaling grid *)
    Alcotest.test_case "strictly DAP TMs contend only on conflicts" `Quick
      (fun () ->
        let dap =
          List.filter
            (fun impl ->
              (Pcl_verdict.assess impl).Pcl_verdict.parallelism
              = Pcl_verdict.Holds)
            Registry.all
        in
        Alcotest.(check (list string))
          "P leg holds"
          (Contract_law.names Contract_law.strict_dap)
          (List.map Registry.name dap);
        List.iter
          (fun impl ->
            List.iter
              (fun n_procs ->
                List.iter
                  (fun conflict_pct ->
                    let s =
                      Workload.run impl
                        { Workload.default with n_procs; conflict_pct }
                    in
                    check_int
                      (Printf.sprintf "%s procs=%d conflict=%d"
                         (Registry.name impl) n_procs conflict_pct)
                      0 s.Workload.disjoint_contentions)
                  [ 0; 50; 100 ])
              [ 2; 4; 8 ])
          dap);
  ]

let progress_tests =
  [
    Alcotest.test_case "tl-lock stalls the conflicting probe" `Quick
      (fun () ->
        let p = Progress.run (Registry.find_exn "tl-lock") ~disjoint:false in
        check "stalls" true (p.Progress.stalls > 0));
    Alcotest.test_case "tl-lock never disturbs the disjoint probe" `Quick
      (fun () ->
        let p = Progress.run (Registry.find_exn "tl-lock") ~disjoint:true in
        check_int "no stalls" 0 p.Progress.stalls;
        check_int "no aborts" 0 p.Progress.aborts;
        check_int "all commits" p.Progress.points p.Progress.commits);
    Alcotest.test_case "norec stalls even the disjoint probe" `Quick
      (fun () ->
        let p = Progress.run (Registry.find_exn "norec") ~disjoint:true in
        check "stalls" true (p.Progress.stalls > 0));
    Alcotest.test_case "obstruction-free TMs never stall" `Quick (fun () ->
        List.iter
          (fun name ->
            List.iter
              (fun disjoint ->
                let p = Progress.run (Registry.find_exn name) ~disjoint in
                check_int
                  (Printf.sprintf "%s disjoint=%b stalls" name disjoint)
                  0 p.Progress.stalls)
              [ true; false ])
          (Contract_law.names (fun c -> not (Contract_law.blocking c))));
    Alcotest.test_case "tl2 aborts but never stalls the conflicting probe"
      `Quick (fun () ->
        let p = Progress.run (Registry.find_exn "tl2-clock") ~disjoint:false in
        check_int "no stalls" 0 p.Progress.stalls;
        check "aborts happen" true (p.Progress.aborts > 0));
    Alcotest.test_case "every probe is one point" `Quick (fun () ->
        List.iter
          (fun impl ->
            List.iter
              (fun disjoint ->
                let p = Progress.run impl ~disjoint in
                check_int
                  (Printf.sprintf "%s disjoint=%b" (Registry.name impl)
                     disjoint)
                  p.Progress.points
                  (p.Progress.commits + p.Progress.aborts + p.Progress.stalls))
              [ true; false ])
          Registry.all);
  ]

let () =
  Alcotest.run "workload"
    [ ("workload", workload_tests); ("progress", progress_tests) ]

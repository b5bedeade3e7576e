(* Tests for the mechanized PCL construction: the transaction specs, the
   critical-step search, the claims of the proof against each TM, the
   triangle verdicts, and the agreement of every TM's declared contract
   with them. *)

open Core

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let t tid = Tid.v tid
let conflict a b = Conflict.conflict Pcl_txns.data_sets (t a) (t b)

let txns_tests =
  [
    Alcotest.test_case "seven transactions on seven processes" `Quick
      (fun () ->
        check_int "count" 7 (List.length Pcl_txns.specs);
        List.iteri
          (fun i s ->
            check "pid = tid" true (s.Static_txn.pid = i + 1);
            check "tid" true (Tid.equal s.Static_txn.tid (Tid.v (i + 1))))
          Pcl_txns.specs);
    Alcotest.test_case "conflict structure of the proof" `Quick (fun () ->
        (* the conflicts the proof relies on *)
        check "T1-T3 conflict (b1, b3, e1_3)" true (conflict 1 3);
        check "T1-T2 conflict (a, b7)" true (conflict 1 2);
        check "T2-T5 conflict (b2, b5, e2_5)" true (conflict 2 5);
        check "T2-T7 conflict (a, e2_7)" true (conflict 2 7);
        check "T1-T7 conflict (a, c1, b7)" true (conflict 1 7);
        check "T3-T4 conflict (b4, c3, e3_4)" true (conflict 3 4);
        check "T5-T6 conflict (b6, c5, e5_6)" true (conflict 5 6);
        check "T1-T6 conflict (d1)" true (conflict 1 6);
        check "T2-T4 conflict (d2)" true (conflict 2 4);
        (* ... and the disjointnesses it needs *)
        check "T2-T3 disjoint" false (conflict 2 3);
        check "T2-T6 disjoint" false (conflict 2 6);
        check "T1-T5 disjoint" false (conflict 1 5);
        check "T1-T4 disjoint" false (conflict 1 4);
        check "T3-T5 disjoint" false (conflict 3 5);
        check "T3-T6 disjoint" false (conflict 3 6);
        check "T3-T7 disjoint" false (conflict 3 7);
        check "T4-T7 disjoint" false (conflict 4 7);
        check "T5-T7 disjoint" false (conflict 5 7);
        check "T6-T7 disjoint" false (conflict 6 7);
        check "T4-T5 disjoint" false (conflict 4 5);
        check "T4-T6 disjoint" false (conflict 4 6));
    Alcotest.test_case "19 data items" `Quick (fun () ->
        check_int "items" 19 (List.length Pcl_txns.items));
  ]

let candidate = (module Candidate_tm : Tm_intf.S)
let pram = (module Pram_tm : Tm_intf.S)
let tl = (module Tl_tm : Tm_intf.S)

let critical_tests =
  [
    Alcotest.test_case "candidate: s1 found with the right flip" `Quick
      (fun () ->
        match
          Pcl_critical_step.find candidate ~prefix:[] ~writer:1 ~reader:3
            ~reader_tid:(Tid.v 3) ~item:Pcl_txns.b1
            ~initial_value:Value.initial
        with
        | Pcl_critical_step.Found f ->
            check "before 0" true
              (Value.equal f.Pcl_critical_step.before Value.initial);
            check "after 1" true
              (Value.equal f.Pcl_critical_step.after (Value.int 1));
            check "non-trivial step" true
              (Primitive.non_trivial f.Pcl_critical_step.step.Access_log.prim);
            check "within the solo run" true
              (f.Pcl_critical_step.k <= f.Pcl_critical_step.writer_total)
        | _ -> Alcotest.fail "expected Found");
    Alcotest.test_case "pram: no flip (consistency signal)" `Quick (fun () ->
        match
          Pcl_critical_step.find pram ~prefix:[] ~writer:1 ~reader:3
            ~reader_tid:(Tid.v 3) ~item:Pcl_txns.b1
            ~initial_value:Value.initial
        with
        | Pcl_critical_step.No_flip { writer_total; value } ->
            check_int "zero steps" 0 writer_total;
            check "still 0" true (Value.equal value Value.initial)
        | _ -> Alcotest.fail "expected No_flip");
    Alcotest.test_case "tl: liveness signal" `Quick (fun () ->
        match
          Pcl_critical_step.find tl ~prefix:[] ~writer:1 ~reader:3
            ~reader_tid:(Tid.v 3) ~item:Pcl_txns.b1
            ~initial_value:Value.initial
        with
        | Pcl_critical_step.Liveness _ -> ()
        | _ -> Alcotest.fail "expected Liveness");
  ]

let construction_tests =
  [
    Alcotest.test_case "candidate: full construction succeeds" `Quick
      (fun () ->
        match Pcl_constructions.build candidate with
        | Ok c ->
            check "k1 positive" true (c.Pcl_constructions.k1 > 0);
            check "k2 positive" true (c.Pcl_constructions.k2 > 0);
            check "o1 <> o2 (claim 3)" false
              (Oid.equal c.Pcl_constructions.s1.Access_log.oid
                 c.Pcl_constructions.s2.Access_log.oid)
        | Error f ->
            Alcotest.failf "unexpected failure: %a" Pcl_constructions.pp_failure
              f);
    Alcotest.test_case "pram: construction reports consistency" `Quick
      (fun () ->
        match Pcl_constructions.build pram with
        | Error (Pcl_constructions.Consistency_no_flip { item; _ }) ->
            check "item b1" true (Item.equal item Pcl_txns.b1)
        | _ -> Alcotest.fail "expected Consistency_no_flip");
    Alcotest.test_case "tl: construction reports liveness" `Quick (fun () ->
        match Pcl_constructions.build tl with
        | Error (Pcl_constructions.Liveness_failure _) -> ()
        | _ -> Alcotest.fail "expected Liveness_failure");
  ]

let claims_tests =
  [
    Alcotest.test_case "candidate: claims and premises hold, figures break \
                        at T7" `Quick (fun () ->
        let r = Pcl_claims.analyse candidate in
        match r.Pcl_claims.outcome with
        | Error _ -> Alcotest.fail "construction should succeed"
        | Ok d ->
            check "claim1" true d.Pcl_claims.claim1;
            check "claim2 s1 non-trivial" true d.Pcl_claims.claim2_s1_nontrivial;
            check "claim2 o1 read after s1" true d.Pcl_claims.claim2_o1_read_by_t3;
            check "claim2 o1 read before s1" true
              d.Pcl_claims.claim2_o1_read_by_t3';
            check "claim2 s2 non-trivial" true d.Pcl_claims.claim2_s2_nontrivial;
            check "claim3" true d.Pcl_claims.claim3;
            check "premise s1 stable" true d.Pcl_claims.premise_s1_stable;
            check "premise alpha2" true d.Pcl_claims.premise_alpha2_noninterfering;
            (* beta: everything up to T7's c1/c2 holds *)
            let failed = Pcl_claims.failed_checks d.Pcl_claims.beta in
            check "beta failures at T7 only" true
              (failed <> []
              && List.for_all
                   (fun c -> Tid.equal c.Pcl_claims.tid (Tid.v 7))
                   failed);
            (* indistinguishability holds for a strictly DAP TM *)
            check "p7 cannot distinguish" true
              (Result.is_ok d.Pcl_claims.indistinguishable_p7);
            (* and the contradiction is never reached on a real TM *)
            check "no contradiction" false d.Pcl_claims.contradiction);
    Alcotest.test_case "candidate: T3/T4 rows of Figure 5 hold exactly"
      `Quick (fun () ->
        let r = Pcl_claims.analyse candidate in
        match r.Pcl_claims.outcome with
        | Error _ -> Alcotest.fail "construction should succeed"
        | Ok d ->
            List.iter
              (fun c ->
                if Tid.to_int c.Pcl_claims.tid <> 7 then
                  check c.Pcl_claims.label true c.Pcl_claims.ok)
              d.Pcl_claims.beta.Pcl_claims.checks);
    Alcotest.test_case "candidate: beta history refutes weak adaptive \
                        consistency" `Quick (fun () ->
        let r = Pcl_claims.analyse candidate in
        match r.Pcl_claims.outcome with
        | Error _ -> Alcotest.fail "construction should succeed"
        | Ok d ->
            let h =
              Pcl_claims.(d.beta.run.Pcl_harness.sim.Sim.history)
            in
            let sub =
              History.restrict h
                (Tid.Set.of_list [ Tid.v 1; Tid.v 2; Tid.v 7 ])
            in
            check "wac unsat" true (Weak_adaptive.check sub = Spec.Unsat));
    Alcotest.test_case "si-clock: both figure tables hold, p7 distinguishes"
      `Quick (fun () ->
        let r = Pcl_claims.analyse (module Si_tm : Tm_intf.S) in
        match r.Pcl_claims.outcome with
        | Error _ -> Alcotest.fail "construction should succeed"
        | Ok d ->
            check "fig5 all ok" true
              (Pcl_claims.failed_checks d.Pcl_claims.beta = []);
            check "fig6 all ok" true
              (Pcl_claims.failed_checks d.Pcl_claims.beta' = []);
            check "p7 distinguishes" true
              (Result.is_error d.Pcl_claims.indistinguishable_p7);
            check "no contradiction" false d.Pcl_claims.contradiction);
  ]

(* the agreement law's verdict row: the legs follow from the declared
   contract and the theorem (Contract_law) *)
let verdict_tests =
  List.map
    (fun impl ->
      Alcotest.test_case (Registry.name impl ^ " verdict") `Quick (fun () ->
          let p, c, l = Contract_law.legs (Contract_law.contract impl) in
          let v = Pcl_verdict.assess impl in
          let leg = function Pcl_verdict.Holds -> true | _ -> false in
          check "parallelism" p (leg v.Pcl_verdict.parallelism);
          check "consistency" c (leg v.Pcl_verdict.consistency);
          check "liveness" l (leg v.Pcl_verdict.liveness);
          check "some leg lost (the theorem)" true
            (not (leg v.Pcl_verdict.parallelism)
            || (not (leg v.Pcl_verdict.consistency))
            || not (leg v.Pcl_verdict.liveness))))
    Registry.all

(* the agreement law's condition, explore and tables rows *)
let agreement_tests =
  List.map
    (fun impl ->
      Alcotest.test_case
        (Registry.name impl ^ " agrees with its contract")
        `Quick
        (fun () ->
          Contract_law.condition_row impl;
          Contract_law.explore_row impl;
          Contract_law.tables_row impl))
    Registry.all


(* the proof's delta lemmas, mechanized: the auxiliary executions are WAC-
   satisfiable, but every satisfying choice of com(alpha) must exclude the
   transaction the proof says it excludes *)
let delta_lemma_tests =
  [
    Alcotest.test_case "delta2: T2 cannot be in com (Claim 4)" `Quick
      (fun () ->
        match Pcl_constructions.build candidate with
        | Error _ -> Alcotest.fail "construction should succeed"
        | Ok c ->
            let r = Pcl_harness.run candidate (Pcl_constructions.delta2 c) in
            let hh = r.Pcl_harness.sim.Sim.history in
            (* sanity: T5 reads 0 for b2 in alpha5' as the proof states *)
            check "T5 reads b2=0" true
              (Pcl_harness.read_of r (Tid.v 5) Pcl_txns.b2
              = Some (Value.int 0));
            check "satisfiable at all" true
              (Spec.sat (Weak_adaptive.check hh));
            check "unsat when T2 forced into com" true
              (Weak_adaptive.check
                 ~com_filter:(fun com -> Tid.Set.mem (Tid.v 2) com)
                 hh
              = Spec.Unsat));
    Alcotest.test_case "delta5: T1 cannot be in com (Claim 5)" `Quick
      (fun () ->
        match Pcl_constructions.build candidate with
        | Error _ -> Alcotest.fail "construction should succeed"
        | Ok c ->
            let r = Pcl_harness.run candidate (Pcl_constructions.delta5 c) in
            let hh = r.Pcl_harness.sim.Sim.history in
            check "T3 reads b1=0" true
              (Pcl_harness.read_of r (Tid.v 3) Pcl_txns.b1
              = Some (Value.int 0));
            check "satisfiable at all" true
              (Spec.sat (Weak_adaptive.check hh));
            check "unsat when T1 forced into com" true
              (Weak_adaptive.check
                 ~com_filter:(fun com -> Tid.Set.mem (Tid.v 1) com)
                 hh
              = Spec.Unsat));
  ]

let () =
  Alcotest.run "pcl"
    [
      ("txns", txns_tests);
      ("delta-lemmas", delta_lemma_tests);
      ("critical-step", critical_tests);
      ("construction", construction_tests);
      ("claims", claims_tests);
      ("verdict", verdict_tests);
      ("agreement", agreement_tests);
    ]

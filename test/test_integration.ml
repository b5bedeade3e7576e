(* End-to-end integration tests: full pipelines from scheduled executions
   through histories, logs, checkers and detectors, plus randomized
   cross-TM properties. *)

open Core

let check = Alcotest.(check bool)

let x = Item.v "x"
let y = Item.v "y"
let z = Item.v "z"

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

let three_txns =
  [ spec 1 1 [ x ] [ (y, 1) ]; spec 2 2 [ y ] [ (z, 2) ];
    spec 3 3 [ z ] [ (x, 3) ] ]

(* random (but seeded) schedules over three processes *)
let random_schedule st =
  let atoms = ref [] in
  for _ = 1 to 10 do
    let pid = 1 + Random.State.int st 3 in
    let n = 1 + Random.State.int st 4 in
    atoms := Schedule.Steps (pid, n) :: !atoms
  done;
  List.rev
    (Schedule.Until_done 3 :: Schedule.Until_done 2 :: Schedule.Until_done 1
   :: !atoms)

let pipeline_tests =
  List.map
    (fun impl ->
      let (module M : Tm_intf.S) = impl in
      Alcotest.test_case
        (M.name ^ ": random schedules produce coherent artifacts") `Quick
        (fun () ->
          let st = Random.State.make [| 42 |] in
          for _ = 1 to 25 do
            let schedule = random_schedule st in
            let outcomes = Hashtbl.create 8 in
            let r =
              Sim.replay ~budget:2_000 (setup impl three_txns outcomes)
                schedule
            in
            (* history well-formed *)
            (match History.well_formed r.Sim.history with
            | Ok () -> ()
            | Error e -> Alcotest.failf "%s: %s" M.name e);
            (* events and steps agree on attribution *)
            let log_tids =
              List.sort_uniq compare
                (List.filter_map
                   (fun (e : Access_log.entry) -> e.Access_log.tid)
                   (Log_ref.of_log (Memory.log r.Sim.mem)))
            in
            let hist_tids = History.txns r.Sim.history in
            check "log txns appear in history" true
              (List.for_all (fun t -> List.mem t hist_tids) log_tids);
            (* outcome statuses match history statuses *)
            Hashtbl.iter
              (fun tid (o : Static_txn.outcome) ->
                match o.Static_txn.status with
                | Static_txn.Committed ->
                    check "history agrees committed" true
                      (History.committed r.Sim.history tid)
                | Static_txn.Aborted ->
                    check "history agrees aborted" true
                      (History.aborted r.Sim.history tid)
                | Static_txn.Unstarted -> ())
              outcomes
          done))
    Registry.all

(* TMs that declare strict DAP never contend when disjoint, whatever
   the schedule *)
let dap_property_tests =
  List.filter_map
    (fun impl ->
      let (module M : Tm_intf.S) = impl in
      if M.contract.Tm_intf.strict_dap then
        Some
          (Alcotest.test_case
             (M.name ^ ": strict DAP under random schedules") `Quick
             (fun () ->
               let disjoint =
                 [ spec 1 1 [ x ] [ (x, 1) ]; spec 2 2 [ y ] [ (y, 2) ];
                   spec 3 3 [ z ] [ (z, 3) ] ]
               in
               let st = Random.State.make [| 7 |] in
               for _ = 1 to 25 do
                 let outcomes = Hashtbl.create 8 in
                 let r =
                   Sim.replay ~budget:2_000 (setup impl disjoint outcomes)
                     (random_schedule st)
                 in
                 check "no contention at all" true
                   (Contention.all_contentions
                      (Access_log.whole (Memory.log r.Sim.mem))
                   = [])
               done))
      else None)
    Registry.all

(* TMs that declare a class above blocking abort no transaction without
   step contention, under random schedules *)
let of_property_tests =
  List.filter_map
    (fun impl ->
      let (module M : Tm_intf.S) = impl in
      if not (Contract_law.blocking M.contract) then
        Some
          (Alcotest.test_case
             (M.name ^ ": obstruction-freedom under random schedules") `Quick
             (fun () ->
               let st = Random.State.make [| 13 |] in
               for _ = 1 to 25 do
                 let outcomes = Hashtbl.create 8 in
                 let r =
                   Sim.replay ~budget:2_000 (setup impl three_txns outcomes)
                     (random_schedule st)
                 in
                 match
                   Obstruction_freedom.violations r.Sim.history
                     (Access_log.whole (Memory.log r.Sim.mem))
                 with
                 | [] -> ()
                 | v :: _ ->
                     Alcotest.failf "%s: %a" M.name
                       Obstruction_freedom.pp_violation v
               done))
      else None)
    Registry.all

(* every TM but the theorem's victims satisfies its declared condition
   under random schedules *)
let consistency_property_tests =
  List.filter_map
    (fun impl ->
      let (module M : Tm_intf.S) = impl in
      let target =
        if Contract_law.claims_all_three M.contract then None
        else
          let c = Checkers.find_exn M.contract.Tm_intf.condition in
          Some (fun h -> c.Spec.check h)
      in
      Option.map
        (fun checkf ->
          Alcotest.test_case
            (M.name ^ ": consistency target under random schedules") `Quick
            (fun () ->
              let st = Random.State.make [| 99 |] in
              for i = 1 to 25 do
                let outcomes = Hashtbl.create 8 in
                let r =
                  Sim.replay ~budget:2_000 (setup impl three_txns outcomes)
                    (random_schedule st)
                in
                match checkf r.Sim.history with
                | Spec.Sat -> ()
                | Spec.Out_of_budget -> ()
                | Spec.Unsat ->
                    Alcotest.failf "%s: schedule %d produced a violating \
                                    history" M.name i
              done))
        target)
    Registry.all

(* cross-validation: on histories of TMs whose reads return the latest
   conflicting write in history order (the strictly serializable ones),
   the polynomial conflict-serializability check implies the value-based
   serializability search.  Snapshot reads (si-clock), torn reads
   (candidate) and process-local reads (pram-local) legitimately break
   the op-order => data-flow link, so they are excluded. *)
let csr_cross_validation_tests =
  List.filter_map
    (fun impl ->
      let (module M : Tm_intf.S) = impl in
      if not (List.mem M.name [ "tl-lock"; "dstm"; "tl2-clock"; "norec" ])
      then None
      else
        Some
          (Alcotest.test_case (M.name ^ ": CSR implies value-based ser")
             `Quick (fun () ->
               let st = Random.State.make [| 2024 |] in
               for _ = 1 to 25 do
                 let outcomes = Hashtbl.create 8 in
                 let r =
                   Sim.replay ~budget:2_000 (setup impl three_txns outcomes)
                     (random_schedule st)
                 in
                 let csr = Conflict_serializability.check r.Sim.history in
                 let ser = Serializability.check r.Sim.history in
                 match (csr, ser) with
                 | Spec.Sat, Spec.Unsat ->
                     Alcotest.failf "%s: CSR sat but value-based ser unsat"
                       M.name
                 | _ -> ()
               done)))
    Registry.all

(* the paper's delta executions re-created end to end on the candidate TM *)
let delta_tests =
  [
    Alcotest.test_case "delta1 on candidate matches the paper" `Quick
      (fun () ->
        (* T1 solo to commit, then T3 solo: T3 must read b1 = 1 *)
        let r = Pcl_harness.run (module Candidate_tm) Pcl_constructions.delta1 in
        check "T1 committed" true (Pcl_harness.committed r (Tid.v 1));
        check "T3 committed" true (Pcl_harness.committed r (Tid.v 3));
        check "T3 reads b1=1" true
          (Pcl_harness.read_of r (Tid.v 3) Pcl_txns.b1 = Some (Value.int 1));
        check "T3 reads b4=0" true
          (Pcl_harness.read_of r (Tid.v 3) Pcl_txns.b4 = Some (Value.int 0));
        (* and the resulting history satisfies everything *)
        check "wac sat" true (Spec.sat (Weak_adaptive.check r.Pcl_harness.sim.Sim.history)));
    Alcotest.test_case "solo runs of all seven transactions commit" `Quick
      (fun () ->
        List.iter
          (fun impl ->
            let (module M : Tm_intf.S) = impl in
            List.iteri
              (fun i _ ->
                let pid = i + 1 in
                let r =
                  Pcl_harness.run impl [ Schedule.Until_done pid ]
                in
                check
                  (Printf.sprintf "%s: T%d commits solo" M.name pid)
                  true
                  (Pcl_harness.committed r (Tid.v pid)))
              Pcl_txns.specs)
          Registry.all);
  ]

let () =
  Alcotest.run "integration"
    [
      ("pipeline", pipeline_tests);
      ("dap-properties", dap_property_tests);
      ("of-properties", of_property_tests);
      ("consistency-properties", consistency_property_tests);
      ("csr-cross-validation", csr_cross_validation_tests);
      ("delta-executions", delta_tests);
    ]

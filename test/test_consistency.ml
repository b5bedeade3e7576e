(* Tests for the consistency-condition decision procedures: the anomaly
   catalogue matrix, the placement solver, the lazy enumerators, the
   delta_1 case analysis of the paper as a pure history question, and
   randomized implication-lattice properties. *)

open Core
open Build

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let h instrs = Build.history instrs

(* ------------------------------------------------------------------ *)
(* the catalogue matrix: one alcotest case per (anomaly, checker) pair *)

let catalogue_tests =
  List.concat_map
    (fun (a : Anomalies.anomaly) ->
      List.map
        (fun (name, expected) ->
          Alcotest.test_case
            (Printf.sprintf "%s / %s" a.Anomalies.name name)
            `Quick
            (fun () ->
              let c = Checkers.find_exn name in
              let v = c.Spec.check a.Anomalies.history in
              check
                (Printf.sprintf "expected %b" expected)
                expected (Spec.sat v);
              (* verdicts must be decisive on the catalogue *)
              check "decisive" true (v <> Spec.Out_of_budget)))
        a.Anomalies.expected)
    Anomalies.catalogue

(* ------------------------------------------------------------------ *)
(* enumerators *)

let enumerator_tests =
  [
    Alcotest.test_case "compositions count 2^(n-1)" `Quick (fun () ->
        let count l = List.length (List.of_seq (Spec.compositions l)) in
        check_int "n=1" 1 (count [ 1 ]);
        check_int "n=2" 2 (count [ 1; 2 ]);
        check_int "n=4" 8 (count [ 1; 2; 3; 4 ]);
        check_int "n=6" 32 (count [ 1; 2; 3; 4; 5; 6 ]));
    Alcotest.test_case "compositions preserve order and cover" `Quick
      (fun () ->
        Seq.iter
          (fun comp ->
            check "concat restores" true (List.concat comp = [ 1; 2; 3 ]);
            check "non-empty blocks" true
              (List.for_all (fun b -> b <> []) comp))
          (Spec.compositions [ 1; 2; 3 ]));
    Alcotest.test_case "bool_vectors count 2^n" `Quick (fun () ->
        check_int "n=0" 1 (List.length (List.of_seq (Spec.bool_vectors 0)));
        check_int "n=3" 8 (List.length (List.of_seq (Spec.bool_vectors 3))));
    Alcotest.test_case "com candidates: committed forced, pending optional"
      `Quick (fun () ->
        let hh =
          h [ B (1, 1); W (1, "x", 1); C 1; B (2, 2); Cp 2; B (3, 3); Cp 3 ]
        in
        let cands = List.of_seq (Spec.com_candidates hh) in
        check_int "2^2 candidates" 4 (List.length cands);
        check "all contain T1" true
          (List.for_all (fun s -> Tid.Set.mem (Tid.v 1) s) cands);
        check "first is the largest" true
          (Tid.Set.cardinal (List.hd cands) = 3));
  ]

(* ------------------------------------------------------------------ *)
(* placement solver *)

let dummy_info : Tid.t -> Blocks.txn_info =
  let empty tid =
    {
      Blocks.tid;
      pid = 1;
      status = History.Committed;
      greads = [];
      writes = [];
      write_set = Item.Set.empty;
      ops = [];
      first_pos = 0;
      last_pos = 0;
    }
  in
  empty

let mk_problem points prec =
  {
    Placement.points = Array.of_list points;
    prec;
    focus = (fun _ -> true);
    info_of = dummy_info;
    initial = (fun _ -> Value.initial);
  }

let pt lo hi = { Placement.block = Blocks.Wblock (Tid.v 1); lo; hi }

let placement_tests =
  [
    Alcotest.test_case "windows force an order" `Quick (fun () ->
        (* point A in [5,6], point B in [1,2]: B must come first *)
        let budget = ref 10_000 in
        let sols = ref [] in
        ignore
          (Placement.solve ~budget (mk_problem [ pt 5 6; pt 1 2 ] [])
             ~on_solution:(fun o -> sols := o :: !sols; false));
        check "unique order" true (!sols = [ [ 1; 0 ] ]));
    Alcotest.test_case "disjoint windows both orders impossible" `Quick
      (fun () ->
        let budget = ref 10_000 in
        (* A in [5,6], B in [1,2], but precedence A before B: unsat *)
        check "unsat" true
          (Placement.satisfiable ~budget
             (mk_problem [ pt 5 6; pt 1 2 ] [ (0, 1) ])
          = Spec.Unsat));
    Alcotest.test_case "shared gap allows both orders" `Quick (fun () ->
        let budget = ref 10_000 in
        let n = ref 0 in
        ignore
          (Placement.solve ~budget (mk_problem [ pt 3 3; pt 3 3 ] [])
             ~on_solution:(fun _ -> incr n; false));
        check_int "two orders" 2 !n);
    Alcotest.test_case "precedence chain" `Quick (fun () ->
        let budget = ref 10_000 in
        let sols = ref [] in
        ignore
          (Placement.solve ~budget
             (mk_problem [ pt 0 9; pt 0 9; pt 0 9 ] [ (2, 1); (1, 0) ])
             ~on_solution:(fun o -> sols := o :: !sols; false));
        check "only the chain order" true (!sols = [ [ 2; 1; 0 ] ]));
    Alcotest.test_case "precedence cycle is unsat" `Quick (fun () ->
        let budget = ref 10_000 in
        check "unsat" true
          (Placement.satisfiable ~budget
             (mk_problem [ pt 0 9; pt 0 9 ] [ (0, 1); (1, 0) ])
          = Spec.Unsat));
    Alcotest.test_case "budget exhaustion is reported" `Quick (fun () ->
        let budget = ref 3 in
        check "out of budget" true
          (Placement.satisfiable ~budget
             (mk_problem [ pt 0 9; pt 0 9; pt 0 9; pt 0 9 ] [])
          = Spec.Out_of_budget));
    Alcotest.test_case "legality prunes: torn gr block" `Quick (fun () ->
        (* writer installs x=1,y=1 at one point; reader's greads want
           x=1,y=0 — no order can satisfy *)
        let info tid =
          if Tid.to_int tid = 1 then
            {
              (dummy_info tid) with
              Blocks.writes = [ (Item.v "x", Value.int 1); (Item.v "y", Value.int 1) ];
              write_set = Item.set_of_list [ Item.v "x"; Item.v "y" ];
            }
          else
            {
              (dummy_info tid) with
              Blocks.greads = [ (Item.v "x", Value.int 1); (Item.v "y", Value.int 0) ];
            }
        in
        let problem =
          {
            Placement.points =
              [| { Placement.block = Blocks.Wblock (Tid.v 1); lo = 0; hi = 9 };
                 { Placement.block = Blocks.Greads (Tid.v 2); lo = 0; hi = 9 } |];
            prec = [];
            focus = (fun _ -> true);
            info_of = info;
            initial = (fun _ -> Value.initial);
          }
        in
        let budget = ref 10_000 in
        check "unsat" true (Placement.satisfiable ~budget problem = Spec.Unsat));
  ]

(* ------------------------------------------------------------------ *)
(* the delta_1 case analysis as a pure history question: after T1 commits
   solo, a solo T3 *must* read b1=1 under weak adaptive consistency —
   because T1 reads b3 (which T3 writes) and both write e1_3 *)

let delta1_history ~b1 =
  h [ B (1, 1); R (1, "b3", 0); R (1, "b7", 0);
      W (1, "a", 1); W (1, "b1", 1); W (1, "c1", 1); W (1, "d1", 1);
      W (1, "e1_3", 1); C 1;
      B (3, 3); R (3, "b1", b1); R (3, "b4", 0);
      W (3, "b3", 1); W (3, "c3", 1); W (3, "e1_3", 1); W (3, "e3_4", 1);
      C 3 ]

let delta1_tests =
  [
    Alcotest.test_case "T3 reading b1=1 is WAC-satisfiable" `Quick (fun () ->
        check "sat" true
          (Spec.sat (Weak_adaptive.check (delta1_history ~b1:1))));
    Alcotest.test_case "T3 reading b1=0 violates WAC (paper's delta1)" `Quick
      (fun () ->
        check "unsat" true
          (Weak_adaptive.check (delta1_history ~b1:0) = Spec.Unsat));
    Alcotest.test_case "b1=0 also violates SI and PC individually" `Quick
      (fun () ->
        check "si unsat" true
          (Snapshot_isolation.check (delta1_history ~b1:0) = Spec.Unsat);
        check "pc unsat" true
          (Processor_consistency.check (delta1_history ~b1:0) = Spec.Unsat));
    Alcotest.test_case "without the coupling items, b1=0 is WAC-fine" `Quick
      (fun () ->
        (* drop T1's read of b3 and the common e1_3 writes: now a single PC
           group can order T3 before T1 *)
        let weak =
          h [ B (1, 1); R (1, "b7", 0); W (1, "a", 1); W (1, "b1", 1); C 1;
              B (3, 3); R (3, "b1", 0); W (3, "c3", 1); C 3 ]
        in
        check "sat" true (Spec.sat (Weak_adaptive.check weak)));
  ]

(* ------------------------------------------------------------------ *)
(* commit-pending handling in SI (Def 3.1's com(alpha)) *)

let pending_tests =
  [
    Alcotest.test_case "pending write may be included" `Quick (fun () ->
        let hh =
          h [ B (1, 1); W (1, "x", 7); Cp 1; B (2, 2); R (2, "x", 7); C 2 ]
        in
        check "si sat" true (Spec.sat (Snapshot_isolation.check hh)));
    Alcotest.test_case "pending write may be excluded" `Quick (fun () ->
        let hh =
          h [ B (1, 1); W (1, "x", 7); Cp 1; B (2, 2); R (2, "x", 0); C 2 ]
        in
        check "si sat" true (Spec.sat (Snapshot_isolation.check hh)));
    Alcotest.test_case "live (non-pending) writes are never visible" `Quick
      (fun () ->
        let hh =
          h [ B (1, 1); W (1, "x", 7); B (2, 2); R (2, "x", 7); C 2 ]
        in
        (* T1 live: its write cannot justify T2's read *)
        check "si unsat" true (Snapshot_isolation.check hh = Spec.Unsat);
        check "ser unsat" true (Serializability.check hh = Spec.Unsat);
        check "wac unsat" true (Weak_adaptive.check hh = Spec.Unsat));
    Alcotest.test_case "aborted writes are never visible" `Quick (fun () ->
        let hh =
          h [ B (1, 1); W (1, "x", 7); Ca 1; B (2, 2); R (2, "x", 7); C 2 ]
        in
        check "wac unsat" true (Weak_adaptive.check hh = Spec.Unsat));
  ]

(* ------------------------------------------------------------------ *)
(* SI window semantics: serialization points live inside active intervals *)

let si_window_tests =
  [
    Alcotest.test_case "overlapping txns can serialize reads early" `Quick
      (fun () ->
        (* T2 starts before T1 commits, so T2's snapshot may predate T1 *)
        let hh =
          h [ B (1, 1); B (2, 2); W (1, "x", 1); C 1; R (2, "x", 0); C 2 ]
        in
        check "si sat" true (Spec.sat (Snapshot_isolation.check hh)));
    Alcotest.test_case "snapshot is one point: no time travel" `Quick
      (fun () ->
        (* T2 reads x from T1 but misses T1's y write: torn *)
        let hh =
          h [ B (1, 1); W (1, "x", 1); W (1, "y", 1); C 1;
              B (2, 2); R (2, "x", 1); R (2, "y", 0); C 2 ]
        in
        check "si unsat" true (Snapshot_isolation.check hh = Spec.Unsat));
    Alcotest.test_case "writes serialize after global reads" `Quick (fun () ->
        (* two read-modify-writes on x both reading 0: classic SI-allowed *)
        let hh =
          h [ B (1, 1); B (2, 2); R (1, "x", 0); R (2, "x", 0);
              W (1, "x", 1); W (2, "x", 2); C 1; C 2 ]
        in
        check "si sat" true (Spec.sat (Snapshot_isolation.check hh)));
    Alcotest.test_case "local reads are unconstrained (weak SI)" `Quick
      (fun () ->
        (* T1 writes x=5 then reads x=99: weak SI does not care *)
        let hh =
          h [ B (1, 1); W (1, "x", 5); R (1, "x", 99); C 1 ]
        in
        check "si sat" true (Spec.sat (Snapshot_isolation.check hh));
        (* but serializability replays whole transactions and rejects *)
        check "ser unsat" true (Serializability.check hh = Spec.Unsat));
  ]

(* ------------------------------------------------------------------ *)
(* hierarchy on the catalogue + random histories *)

(* generator: 2-3 transactions over 2 items, operations interleaved; reads
   are truthful against an atomic commit-time store with probability ~2/3,
   arbitrary otherwise *)
let gen_history : History.t QCheck.Gen.t =
 fun st ->
  let n_txn = 2 + Random.State.int st 2 in
  let items = [| "x"; "y" |] in
  (* build per-txn op lists *)
  let ops_of = Array.init n_txn (fun _ -> 1 + Random.State.int st 3) in
  let queues =
    Array.init n_txn (fun _ -> Queue.create ())
  in
  Array.iteri
    (fun i n ->
      for _ = 1 to n do
        let item = items.(Random.State.int st 2) in
        if Random.State.bool st then
          Queue.push (`Write (item, 1 + Random.State.int st 3)) queues.(i)
        else Queue.push (`Read item) queues.(i)
      done;
      Queue.push
        (if Random.State.int st 4 = 0 then `Abort else `Commit)
        queues.(i))
    ops_of;
  let store = Hashtbl.create 4 in
  let local = Array.init n_txn (fun _ -> Hashtbl.create 4) in
  let begun = Array.make n_txn false in
  let live = Array.make n_txn true in
  let instrs = ref [] in
  let emit i =
    let tid = i + 1 in
    if not begun.(i) then begin
      begun.(i) <- true;
      instrs := B (tid, tid) :: !instrs
    end
    else
      match Queue.pop queues.(i) with
      | `Read item ->
          let truthful =
            match Hashtbl.find_opt local.(i) item with
            | Some v -> v
            | None ->
                Option.value ~default:0 (Hashtbl.find_opt store item)
          in
          let v =
            if Random.State.int st 3 = 0 then Random.State.int st 4
            else truthful
          in
          instrs := R (tid, item, v) :: !instrs
      | `Write (item, v) ->
          Hashtbl.replace local.(i) item v;
          instrs := W (tid, item, v) :: !instrs
      | `Commit ->
          Hashtbl.iter (fun k v -> Hashtbl.replace store k v) local.(i);
          live.(i) <- false;
          instrs := C tid :: !instrs
      | `Abort ->
          live.(i) <- false;
          instrs := Ca tid :: !instrs
  in
  let rec drive () =
    let candidates =
      List.filter (fun i -> live.(i)) (List.init n_txn (fun i -> i))
    in
    match candidates with
    | [] -> ()
    | _ ->
        let i = List.nth candidates (Random.State.int st (List.length candidates)) in
        emit i;
        drive ()
  in
  drive ();
  Build.history (List.rev !instrs)

let hierarchy_tests =
  [
    Alcotest.test_case "edges name registered checkers, stronger first"
      `Quick (fun () ->
        let names =
          List.map (fun (c : Spec.checker) -> c.Spec.name) Checkers.all
        in
        let pos name =
          match List.find_index (String.equal name) names with
          | Some i -> i
          | None -> Alcotest.failf "edge names unregistered checker %s" name
        in
        List.iter
          (fun (stronger, weaker) ->
            if pos stronger >= pos weaker then
              Alcotest.failf "%s must precede %s in Checkers.all" stronger
                weaker)
          Checkers.edges);
    Alcotest.test_case "lattice holds on the catalogue" `Quick (fun () ->
        List.iter
          (fun (a : Anomalies.anomaly) ->
            match Hierarchy.check_history a.Anomalies.history with
            | [] -> ()
            | v :: _ ->
                Alcotest.failf "%s: %s sat but %s unsat" a.Anomalies.name
                  v.Hierarchy.stronger v.Hierarchy.weaker)
          Anomalies.catalogue);
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~count:150 ~name:"lattice holds on random histories"
         (QCheck.make gen_history)
         (fun hh ->
           Result.is_ok (History.well_formed hh)
           && Hierarchy.check_history ~budget:400_000 hh = []));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~count:100
         ~name:"sequential legal histories satisfy everything"
         (QCheck.make gen_history)
         (fun hh ->
           (* restrict to the sequential-and-legal subset *)
           QCheck.assume (History.sequential hh && History.complete hh);
           QCheck.assume (Legality.legal hh);
           List.for_all
             (fun (c : Spec.checker) -> Spec.sat (c.Spec.check hh))
             Checkers.all));
  ]


(* ------------------------------------------------------------------ *)
(* the fast path: Checkers.satisfied against its oracle, the full matrix *)

let sat_names verdicts =
  List.filter_map
    (fun (name, v) -> if Spec.sat v then Some name else None)
    verdicts

(* equal, except that a name whose own matrix verdict is Out_of_budget may
   be answered either way; a refuted name never appears *)
let agrees_with_matrix ?budget hh =
  let full = Checkers.matrix ?budget hh in
  let decided name = List.assoc name full <> Spec.Out_of_budget in
  List.filter decided (Checkers.satisfied ?budget hh)
  = List.filter decided (sat_names full)

let fast_path_tests =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~count:150
         ~name:"satisfied = Sat names of matrix on random histories"
         (QCheck.make gen_history)
         (fun hh -> agrees_with_matrix ~budget:400_000 hh));
    Alcotest.test_case "satisfied = Sat names of matrix on the catalogue"
      `Quick (fun () ->
        List.iter
          (fun (a : Anomalies.anomaly) ->
            let hh = a.Anomalies.history in
            Alcotest.(check (list string))
              a.Anomalies.name
              (sat_names (Checkers.matrix hh))
              (Checkers.satisfied hh))
          Anomalies.catalogue);
    Alcotest.test_case
      "satisfied = Sat names of matrix on the stock DPOR sweep (10 TMs)"
      `Slow (fun () ->
        let executions = ref 0 in
        List.iter
          (fun impl ->
            ignore
              (Explore_sweep.run ~por:true
                 ~on_execution:(fun ~strongest:_ r ->
                   incr executions;
                   let hh = r.Sim.history in
                   Alcotest.(check (list string))
                     (Registry.name impl)
                     (sat_names (Checkers.matrix hh))
                     (Checkers.satisfied hh))
                 impl))
          Registry.all;
        check_int "executions" 5_346 !executions);
    Alcotest.test_case "decisions run + implied = 9 x executions" `Slow
      (fun () ->
        Sink.reset Sink.default;
        let executions =
          List.fold_left
            (fun n impl ->
              n + (snd (Explore_sweep.run ~por:true impl)).Explorer.executions)
            0 Registry.all
        in
        let m = Sink.metrics Sink.default in
        let run = Metrics.sum_counters m "checker_verdict_total" in
        let implied = Metrics.sum_counters m "checker_implied_total" in
        check_int "9 x executions" (9 * executions) (run + implied);
        check_int "stock sweep decisions" 48_114 (run + implied);
        check "at most 6,000 decisions run" true (run <= 6_000));
  ]

(* ------------------------------------------------------------------ *)
(* witnesses: every Sat verdict must come with a replayable witness *)

let witness_tests =
  let cases =
    List.concat_map
      (fun (a : Anomalies.anomaly) ->
        List.filter_map
          (fun (name, _) ->
            if List.mem_assoc name Checkers.explainers then
              Some (a, name)
            else None)
          a.Anomalies.expected)
      Anomalies.catalogue
  in
  List.map
    (fun ((a : Anomalies.anomaly), name) ->
      Alcotest.test_case
        (Printf.sprintf "witness %s / %s" a.Anomalies.name name)
        `Quick
        (fun () ->
          let c = Checkers.find_exn name in
          let verdict = c.Spec.check a.Anomalies.history in
          match (verdict, Checkers.explain name a.Anomalies.history) with
          | Spec.Sat, Some w ->
              check "witness validates" true
                (Witness.valid a.Anomalies.history w)
          | Spec.Sat, None -> Alcotest.fail "sat but no witness"
          | Spec.Unsat, Some _ -> Alcotest.fail "unsat but witness produced"
          | Spec.Unsat, None -> ()
          | Spec.Out_of_budget, _ -> ()))
    cases


(* ------------------------------------------------------------------ *)
(* conflict serializability: the polynomial graph check *)

let csr_tests =
  [
    Alcotest.test_case "acyclic history accepted" `Quick (fun () ->
        let hh =
          h [ B (1, 1); W (1, "x", 1); C 1; B (2, 2); R (2, "x", 1); C 2 ]
        in
        check "sat" true (Spec.sat (Conflict_serializability.check hh)));
    Alcotest.test_case "write-skew has no conflict cycle... wait, it does"
      `Quick (fun () ->
        (* r1(x) r1(y) r2(x) r2(y) w1(x) w2(y): r2(x)-w1(x) gives T2->T1,
           r1(y)-w2(y) gives T1->T2 — a cycle *)
        let a = Anomalies.find "write-skew" in
        check "unsat" true
          (Conflict_serializability.check a.Anomalies.history = Spec.Unsat));
    Alcotest.test_case "lost-update cycles" `Quick (fun () ->
        let a = Anomalies.find "lost-update" in
        check "unsat" true
          (Conflict_serializability.check a.Anomalies.history = Spec.Unsat));
    Alcotest.test_case "value-agnostic: impossible reads still accepted"
      `Quick (fun () ->
        (* T2 reads a value nobody wrote: CSR cannot see it, the
           value-based checker can *)
        let hh = h [ B (1, 1); R (1, "x", 42); C 1 ] in
        check "csr sat" true (Spec.sat (Conflict_serializability.check hh));
        check "ser unsat" true (Serializability.check hh = Spec.Unsat));
    Alcotest.test_case "excluding a pending cycle participant helps" `Quick
      (fun () ->
        (* the pending T2 closes a cycle; dropping it from com breaks it *)
        let hh =
          h [ B (1, 1); B (2, 2); R (1, "x", 0); R (2, "y", 0);
              W (2, "x", 2); W (1, "y", 1); C 1; Cp 2 ]
        in
        check "sat by exclusion" true
          (Spec.sat (Conflict_serializability.check hh)));
  ]


(* ------------------------------------------------------------------ *)
(* execution-interval snapshot isolation (the Section-5 variant) *)

let si_ei_tests =
  [
    Alcotest.test_case "pending commit may serialize late under EI" `Quick
      (fun () ->
        (* T1 is commit-pending; T2 (entirely after T1's last event) reads
           the old value, T3 then reads the new one.  Under Def. 3.1 T1's
           write point is trapped inside its (ended) active interval, so
           this is unsatisfiable; under execution intervals the point may
           float between T2 and T3. *)
        let hh =
          h [ B (1, 1); W (1, "x", 1); Cp 1;
              B (2, 2); R (2, "x", 0); C 2;
              B (3, 3); R (3, "x", 1); C 3 ]
        in
        check "active-interval SI refutes" true
          (Snapshot_isolation.check hh = Spec.Unsat);
        check "execution-interval SI accepts" true
          (Spec.sat (Snapshot_isolation_ei.check hh)));
    Alcotest.test_case "for complete histories the two variants agree"
      `Quick (fun () ->
        List.iter
          (fun (a : Anomalies.anomaly) ->
            if History.complete a.Anomalies.history then
              check a.Anomalies.name true
                (Spec.sat (Snapshot_isolation.check a.Anomalies.history)
                = Spec.sat (Snapshot_isolation_ei.check a.Anomalies.history)))
          Anomalies.catalogue);
  ]


(* ------------------------------------------------------------------ *)
(* the folklore equivalence: strict serializability via real-time
   precedence constraints coincides with "whole-transaction points placed
   inside active execution intervals" on finite histories *)

let window_strict_ser ?(budget = 500_000) hh =
  let tbl = Blocks.table hh in
  let info_of tid = Hashtbl.find tbl tid in
  let bref = ref budget in
  Checker_util.exists_com hh (fun com ->
      let tids = Tid.Set.elements com in
      let points =
        Array.of_list
          (List.map
             (fun tid ->
               let lo, hi = Checker_util.active_window (info_of tid) in
               { Placement.block = Blocks.Whole tid; lo; hi })
             tids)
      in
      Placement.satisfiable ~budget:bref
        { Placement.points; prec = [];
          focus = (fun t -> Tid.Set.mem t com);
          info_of; initial = (fun _ -> Value.initial) })

let equivalence_tests =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~count:150
         ~name:"precedence-based = window-based strict serializability"
         (QCheck.make gen_history)
         (fun hh ->
           let a = Strict_serializability.check ~budget:500_000 hh in
           let b = window_strict_ser hh in
           match (a, b) with
           | Spec.Sat, Spec.Sat | Spec.Unsat, Spec.Unsat -> true
           | Spec.Out_of_budget, _ | _, Spec.Out_of_budget -> true
           | _ -> false));
    Alcotest.test_case "agrees on the whole catalogue" `Quick (fun () ->
        List.iter
          (fun (a : Anomalies.anomaly) ->
            let p = Strict_serializability.check a.Anomalies.history in
            let w = window_strict_ser a.Anomalies.history in
            if Spec.sat p <> Spec.sat w then
              Alcotest.failf "%s: prec=%s window=%s" a.Anomalies.name
                (Spec.verdict_to_string p) (Spec.verdict_to_string w))
          Anomalies.catalogue);
  ]


(* ------------------------------------------------------------------ *)
(* checker completeness: histories correct BY CONSTRUCTION must be
   accepted.  A multiversion simulator generates SI histories (snapshot at
   begin, writes visible at commit); a per-process store generates PRAM
   histories (each process sees only its own writes). *)

let gen_si_instrs : Build.instr list QCheck.Gen.t =
 fun st ->
  (* committed versions per item: (commit_stamp, value) newest first *)
  let versions : (string, (int * int) list) Hashtbl.t = Hashtbl.create 4 in
  let items = [| "x"; "y" |] in
  let stamp = ref 0 in
  let n = 2 + Random.State.int st 2 in
  (* transactions with begin stamps and op lists, interleaved round-robin *)
  let txns =
    Array.init n (fun i ->
        (i + 1, ref None (* snapshot *), ref [] (* writes *),
         1 + Random.State.int st 3 (* ops left *)))
  in
  let live = Array.make n true in
  let instrs = ref [] in
  let read_at snap item writes =
    match List.assoc_opt item !writes with
    | Some v -> v
    | None ->
        let vs = Option.value ~default:[] (Hashtbl.find_opt versions item) in
        let rec find = function
          | [] -> 0
          | (ts, v) :: rest -> if ts <= snap then v else find rest
        in
        find vs
  in
  let step i =
    let tid, snap, writes, _ = txns.(i) in
    match !snap with
    | None ->
        incr stamp;
        snap := Some !stamp;
        instrs := B (tid, tid) :: !instrs
    | Some sn ->
        let _, _, _, ops_left = txns.(i) in
        if ops_left <= 0 || Random.State.int st 4 = 0 then begin
          (* commit: versions become visible at a fresh stamp *)
          incr stamp;
          List.iter
            (fun (item, v) ->
              let vs =
                Option.value ~default:[] (Hashtbl.find_opt versions item)
              in
              Hashtbl.replace versions item ((!stamp, v) :: vs))
            !writes;
          live.(i) <- false;
          instrs := C tid :: !instrs
        end
        else begin
          let item = items.(Random.State.int st 2) in
          let t0, s0, w0, left = txns.(i) in
          txns.(i) <- (t0, s0, w0, left - 1);
          if Random.State.bool st then begin
            let v = 1 + Random.State.int st 9 in
            writes := (item, v) :: List.remove_assoc item !writes;
            instrs := W (tid, item, v) :: !instrs
          end
          else instrs := R (tid, item, read_at sn item writes) :: !instrs
        end
  in
  let rec drive () =
    let cands = List.filter (fun i -> live.(i)) (List.init n (fun i -> i)) in
    match cands with
    | [] -> ()
    | _ ->
        step (List.nth cands (Random.State.int st (List.length cands)));
        drive ()
  in
  drive ();
  List.rev !instrs

let gen_pram_instrs : Build.instr list QCheck.Gen.t =
 fun st ->
  (* per-process committed stores; reads see only the own process's
     committed writes *)
  let stores = Array.init 3 (fun _ -> Hashtbl.create 4) in
  let items = [| "x"; "y" |] in
  let instrs = ref [] in
  let tid = ref 0 in
  for _ = 1 to 2 + Random.State.int st 3 do
    incr tid;
    let p = Random.State.int st 3 in
    let local = Hashtbl.copy stores.(p) in
    instrs := B (!tid, p + 1) :: !instrs;
    for _ = 1 to 1 + Random.State.int st 2 do
      let item = items.(Random.State.int st 2) in
      if Random.State.bool st then begin
        let v = 1 + Random.State.int st 9 in
        Hashtbl.replace local item v;
        instrs := W (!tid, item, v) :: !instrs
      end
      else
        instrs :=
          R (!tid, item,
             Option.value ~default:0 (Hashtbl.find_opt local item))
          :: !instrs
    done;
    Hashtbl.reset stores.(p);
    Hashtbl.iter (fun k v -> Hashtbl.replace stores.(p) k v) local;
    instrs := C !tid :: !instrs
  done;
  List.rev !instrs

let completeness_tests =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~count:150
         ~name:"multiversion-simulated histories satisfy SI"
         (QCheck.make gen_si_instrs)
         (fun instrs ->
           let hh = Build.history instrs in
           Result.is_ok (History.well_formed hh)
           && Spec.sat (Snapshot_isolation.check ~budget:600_000 hh)));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~count:150
         ~name:"per-process-store histories satisfy PRAM"
         (QCheck.make gen_pram_instrs)
         (fun instrs ->
           let hh = Build.history instrs in
           Result.is_ok (History.well_formed hh)
           && Spec.sat (Pram.check ~budget:600_000 hh)));
  ]


(* ------------------------------------------------------------------ *)
(* opacity: the all-prefixes mode *)

let opacity_prefix_tests =
  [
    Alcotest.test_case "prefixes enumerate cleanly" `Quick (fun () ->
        let hh =
          h [ B (1, 1); W (1, "x", 1); C 1; B (2, 2); R (2, "x", 1); C 2 ]
        in
        let n = Seq.fold_left (fun acc _ -> acc + 1) 0 (Opacity.prefixes hh) in
        check "one prefix per cut" true (n = History.length hh + 1);
        Seq.iter
          (fun p ->
            check "prefix well-formed" true
              (Result.is_ok (History.well_formed p)))
          (Opacity.prefixes hh));
    Alcotest.test_case "all-prefixes agrees with final-state on the                         catalogue" `Quick (fun () ->
        List.iter
          (fun (a : Anomalies.anomaly) ->
            let final = Opacity.check a.Anomalies.history in
            let pref = Opacity.check ~all_prefixes:true a.Anomalies.history in
            (* prefix mode can only be stricter *)
            if Spec.sat pref && not (Spec.sat final) then
              Alcotest.failf "%s: prefixes sat but final unsat"
                a.Anomalies.name)
          Anomalies.catalogue);
    Alcotest.test_case "dirty read caught at the prefix too" `Quick
      (fun () ->
        let a = Anomalies.find "aborted-dirty-read" in
        check "unsat" true
          (Opacity.check ~all_prefixes:true a.Anomalies.history = Spec.Unsat));
  ]


(* ------------------------------------------------------------------ *)
(* independent brute force: enumerate ALL permutations of the points,
   check window realizability greedily and legality by replay — and
   compare with the optimized DFS solver on random small problems *)

let rec permutations = function
  | [] -> [ [] ]
  | l ->
      List.concat_map
        (fun x ->
          let rest = List.filter (fun y -> y <> x) l in
          List.map (fun p -> x :: p) (permutations rest))
        l

let brute_force_satisfiable (p : Placement.problem) : bool =
  let n = Array.length p.Placement.points in
  let idxs = List.init n (fun i -> i) in
  List.exists
    (fun order ->
      let pos = Array.make n 0 in
      List.iteri (fun i x -> pos.(x) <- i) order;
      List.for_all (fun (a, b) -> pos.(a) < pos.(b)) p.Placement.prec
      && (let ok = ref true and floor = ref 0 in
          List.iter
            (fun i ->
              let pt = p.Placement.points.(i) in
              floor := max !floor pt.Placement.lo;
              if !floor > pt.Placement.hi then ok := false)
            order;
          !ok)
      &&
      let rec replay state = function
        | [] -> true
        | i :: rest -> (
            match
              Blocks.eval ~initial:p.Placement.initial
                ~focus:p.Placement.focus p.Placement.info_of state
                p.Placement.points.(i).Placement.block
            with
            | Some state' -> replay state' rest
            | None -> false)
      in
      replay Item.Map.empty order)
    (permutations idxs)

(* random small placement problems over the dummy universe *)
let gen_problem : Placement.problem QCheck.Gen.t =
 fun st ->
  let n = 2 + Random.State.int st 3 in
  let items = [| Item.v "x"; Item.v "y" |] in
  let infos = Hashtbl.create 8 in
  let points =
    Array.init n (fun i ->
        let tid = Tid.v (i + 1) in
        let greads =
          if Random.State.bool st then
            [ (items.(Random.State.int st 2), Value.int (Random.State.int st 3)) ]
          else []
        in
        let writes =
          if Random.State.bool st then
            [ (items.(Random.State.int st 2), Value.int (Random.State.int st 3)) ]
          else []
        in
        Hashtbl.replace infos tid
          {
            (dummy_info tid) with
            Blocks.greads;
            writes;
            write_set = Item.set_of_list (List.map fst writes);
          };
        let lo = Random.State.int st 4 in
        let hi = lo + Random.State.int st 4 in
        let block =
          if Random.State.bool st then Blocks.Fused tid else Blocks.Whole tid
        in
        { Placement.block; lo; hi })
  in
  let prec =
    List.filter_map
      (fun _ ->
        let a = Random.State.int st n and b = Random.State.int st n in
        if a <> b then Some (a, b) else None)
      (List.init (Random.State.int st 3) (fun i -> i))
  in
  {
    Placement.points;
    prec;
    focus = (fun _ -> true);
    info_of = (fun tid -> Hashtbl.find infos tid);
    initial = (fun _ -> Value.initial);
  }

let brute_force_tests =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~count:300
         ~name:"optimized solver = brute force on small problems"
         (QCheck.make gen_problem)
         (fun p ->
           let budget = ref 1_000_000 in
           let fast =
             match Placement.satisfiable ~budget p with
             | Spec.Sat -> true
             | Spec.Unsat -> false
             | Spec.Out_of_budget -> QCheck.assume_fail ()
           in
           fast = brute_force_satisfiable p));
  ]

let () =
  Alcotest.run "consistency"
    [
      ("catalogue", catalogue_tests);
      ("witnesses", witness_tests);
      ("conflict-serializability", csr_tests);
      ("si-execution-intervals", si_ei_tests);
      ("strict-ser-equivalence", equivalence_tests);
      ("completeness", completeness_tests);
      ("opacity-prefixes", opacity_prefix_tests);
      ("brute-force-cross-validation", brute_force_tests);
      ("enumerators", enumerator_tests);
      ("placement", placement_tests);
      ("delta1", delta1_tests);
      ("commit-pending", pending_tests);
      ("si-windows", si_window_tests);
      ("hierarchy", hierarchy_tests);
      ("fast-path", fast_path_tests);
    ]

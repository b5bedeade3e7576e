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

(* T1 begins and commits, reading and writing nothing: its write block is
   a no-op, so only windows and precedence constrain the points below *)
let empty_tbl = Blocks.table (h [ B (1, 1); C 1 ])

let mk_problem points prec =
  { Placement.points = Array.of_list points; prec; focus = (fun _ -> true) }

let pt lo hi = { Placement.block = Blocks.Wblock (Tid.v 1); lo; hi }

let placement_tests =
  [
    Alcotest.test_case "windows force an order" `Quick (fun () ->
        (* point A in [5,6], point B in [1,2]: B must come first *)
        let budget = ref 10_000 in
        let sols = ref [] in
        ignore
          (Placement.solve ~budget empty_tbl (mk_problem [ pt 5 6; pt 1 2 ] [])
             ~on_solution:(fun o -> sols := o :: !sols; false));
        check "unique order" true (!sols = [ [ 1; 0 ] ]));
    Alcotest.test_case "disjoint windows both orders impossible" `Quick
      (fun () ->
        let budget = ref 10_000 in
        (* A in [5,6], B in [1,2], but precedence A before B: unsat *)
        check "unsat" true
          (Placement.satisfiable ~budget empty_tbl
             (mk_problem [ pt 5 6; pt 1 2 ] [ (0, 1) ])
          = Spec.Unsat));
    Alcotest.test_case "shared gap allows both orders" `Quick (fun () ->
        let budget = ref 10_000 in
        let n = ref 0 in
        ignore
          (Placement.solve ~budget empty_tbl (mk_problem [ pt 3 3; pt 3 3 ] [])
             ~on_solution:(fun _ -> incr n; false));
        check_int "two orders" 2 !n);
    Alcotest.test_case "precedence chain" `Quick (fun () ->
        let budget = ref 10_000 in
        let sols = ref [] in
        ignore
          (Placement.solve ~budget empty_tbl
             (mk_problem [ pt 0 9; pt 0 9; pt 0 9 ] [ (2, 1); (1, 0) ])
             ~on_solution:(fun o -> sols := o :: !sols; false));
        check "only the chain order" true (!sols = [ [ 2; 1; 0 ] ]));
    Alcotest.test_case "precedence cycle is unsat" `Quick (fun () ->
        let budget = ref 10_000 in
        check "unsat" true
          (Placement.satisfiable ~budget empty_tbl
             (mk_problem [ pt 0 9; pt 0 9 ] [ (0, 1); (1, 0) ])
          = Spec.Unsat));
    Alcotest.test_case "budget exhaustion is reported" `Quick (fun () ->
        let budget = ref 3 in
        check "out of budget" true
          (Placement.satisfiable ~budget empty_tbl
             (mk_problem [ pt 0 9; pt 0 9; pt 0 9; pt 0 9 ] [])
          = Spec.Out_of_budget));
    Alcotest.test_case "legality prunes: torn gr block" `Quick (fun () ->
        (* writer installs x=1,y=1 at one point; reader's greads want
           x=1,y=0 — no order can satisfy *)
        let hh =
          h
            [ B (1, 1); W (1, "x", 1); W (1, "y", 1); C 1;
              B (2, 2); R (2, "x", 1); R (2, "y", 0); C 2 ]
        in
        let problem =
          mk_problem
            [ { Placement.block = Blocks.Wblock (Tid.v 1); lo = 0; hi = 9 };
              { Placement.block = Blocks.Greads (Tid.v 2); lo = 0; hi = 9 } ]
            []
        in
        let budget = ref 10_000 in
        check "unsat" true
          (Placement.satisfiable ~budget (Blocks.table hh) problem = Spec.Unsat));
    Alcotest.test_case "a precedence index out of range is rejected" `Quick
      (fun () ->
        let tbl = Blocks.table (h [ B (1, 1); C 1 ]) in
        let raised p =
          match Placement.satisfiable ~budget:(ref 10) tbl p with
          | _ -> false
          | exception Invalid_argument _ -> true
        in
        check "b out of range" true (raised (mk_problem [ pt 0 9 ] [ (0, 1) ]));
        check "a negative" true (raised (mk_problem [ pt 0 9 ] [ (-1, 0) ]));
        (* the frame the failed search took is back in the table *)
        check "table still usable" true
          (Placement.satisfiable ~budget:(ref 10) tbl (mk_problem [ pt 0 9 ] [])
          = Spec.Sat));
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

(* ------------------------------------------------------------------ *)
(* the history index against the event-walk definitions (History_ref) *)

(* stamp events with their positions, as recorded histories are *)
let stamp i = function
  | Event.Inv r -> Event.Inv { r with at = i }
  | Event.Resp r -> Event.Resp { r with at = i }

(* gen_history's well-formed histories, plus what the index must also get
   right: raw events of tids 1..5 spliced in anywhere (pending
   invocations, a second Begin, operations of a transaction that never
   began — tid 4 or 5, beyond gen_history's three —, responses with no
   invocation), and the outputs of truncate_at, append and restrict *)
let gen_index_input : History.t QCheck.Gen.t =
 fun st ->
  let rand n = Random.State.int st n in
  let item () = Item.v (if Random.State.bool st then "x" else "y") in
  let raw () =
    let tid = Tid.v (1 + rand 5) and pid = 1 + rand 5 in
    let op =
      match rand 5 with
      | 0 -> Event.Begin
      | 1 -> Event.Read (item ())
      | 2 -> Event.Write (item (), Value.int (rand 3))
      | 3 -> Event.Try_commit
      | _ -> Event.Abort_call
    in
    if Random.State.bool st then Event.Inv { tid; pid; op; at = 0 }
    else
      let resp =
        match rand 4 with
        | 0 -> Event.R_ok
        | 1 -> Event.R_value (Value.int (rand 3))
        | 2 -> Event.R_committed
        | _ -> Event.R_aborted
      in
      Event.Resp { tid; pid; op; resp; at = 0 }
  in
  let rec splice n = function
    | [] -> List.init n (fun _ -> raw ())
    | e :: rest when n > 0 && rand 4 = 0 -> raw () :: splice (n - 1) (e :: rest)
    | e :: rest -> e :: splice n rest
  in
  let h =
    History.of_list
      (List.mapi stamp (splice (rand 6) (History.to_list (gen_history st))))
  in
  (* index [h] first: a derived history must not inherit its index *)
  ignore (History.txn_count h);
  match rand 4 with
  | 0 -> h
  | 1 -> History.truncate_at h (rand (History.length h + 1))
  | 2 -> History.append h [ stamp (History.length h) (raw ()) ]
  | _ ->
      History.restrict h
        (Tid.Set.of_list
           (List.filter (fun _ -> Random.State.bool st)
              (List.init 5 (fun i -> Tid.v (i + 1)))))

(* gen_index_input's histories, and well-formed ones with one or two
   events changed: an operation or a response replaced, or the event
   dropped or repeated, so that each well-formedness check fails
   somewhere, sometimes twice in one transaction, while the processes
   stay sequential *)
let gen_wf_input : History.t QCheck.Gen.t =
 fun st ->
  let rand n = Random.State.int st n in
  if rand 3 = 0 then gen_index_input st
  else
    let evs = History.to_list (gen_history st) in
    let n = List.length evs in
    let i = rand n and i' = rand n in
    let op () =
      match rand 5 with
      | 0 -> Event.Begin
      | 1 -> Event.Read (Item.v "x")
      | 2 -> Event.Write (Item.v "y", Value.int 1)
      | 3 -> Event.Try_commit
      | _ -> Event.Abort_call
    in
    let resp () =
      match rand 4 with
      | 0 -> Event.R_ok
      | 1 -> Event.R_value (Value.int 0)
      | 2 -> Event.R_committed
      | _ -> Event.R_aborted
    in
    let change j e =
      if j <> i && j <> i' then [ e ]
      else
        match (rand 4, e) with
        | 0, Event.Inv r -> [ Event.Inv { r with op = op () } ]
        | 0, Event.Resp r -> [ Event.Resp { r with op = op () } ]
        | 1, Event.Resp r -> [ Event.Resp { r with resp = resp () } ]
        | 2, _ -> []
        | _ -> [ e; e ]
    in
    History.of_list (List.mapi stamp (List.concat (List.mapi change evs)))

(* every per-transaction query agrees with its event-walk definition, on
   tids 0..6: tid 0 and 6 never occur *)
let index_agrees h =
  let tids = List.init 7 Tid.v in
  let same name a b = if a = b then true else QCheck.Test.fail_report name in
  same "txns" (History.txns h) (History_ref.txns h)
  && same "txn_count" (History.txn_count h) (History_ref.txn_count h)
  && same "begin_order" (History.begin_order h) (History_ref.begin_order h)
  && List.for_all
       (fun t ->
         same "per_txn" (History.per_txn h t) (History_ref.per_txn h t)
         && same "pid_of_txn" (History.pid_of_txn h t)
              (History_ref.pid_of_txn h t)
         && same "status" (History.status h t) (History_ref.status h t)
         && same "positions_of_txn"
              (History.positions_of_txn h t)
              (History_ref.positions_of_txn h t)
         && same "begin_pos" (History.begin_pos h t) (History_ref.begin_pos h t)
         && same "reads" (History.reads h t) (History_ref.reads h t)
         && same "writes" (History.writes h t) (History_ref.writes h t)
         && Item.Set.equal (History.write_set h t) (History_ref.write_set h t)
         && Item.Set.equal (History.read_set h t) (History_ref.read_set h t)
         && List.for_all
              (fun u ->
                same "precedes" (History.precedes h t u)
                  (History_ref.precedes h t u)
                && same "concurrent" (History.concurrent h t u)
                     (History_ref.concurrent h t u))
              tids)
       tids

let index_tests =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~count:300
         ~name:"indexed queries = event-walk definitions"
         (QCheck.make ~print:(Fmt.to_to_string History.pp) gen_index_input)
         index_agrees);
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~count:1000
         ~name:"well_formed in one chain walk = the list version"
         (QCheck.make ~print:(Fmt.to_to_string History.pp) gen_wf_input)
         (fun h -> History.well_formed h = History_ref.well_formed h));
    Alcotest.test_case "index edge semantics" `Quick (fun () ->
        let x = Item.v "x" and y = Item.v "y" and t1 = Tid.v 1 in
        let inv op = Event.Inv { tid = t1; pid = 1; op; at = 0 }
        and resp op resp = Event.Resp { tid = t1; pid = 1; op; resp; at = 0 } in
        let hh =
          History.of_list
            [
              (* a read answered before any Begin: the first event *)
              resp (Event.Read x) (Event.R_value (Value.int 5));
              inv Event.Begin;
              resp Event.Begin Event.R_ok;
              (* a write invocation answered A_T ... *)
              inv (Event.Write (x, Value.int 1));
              resp (Event.Write (x, Value.int 1)) Event.R_aborted;
              (* ... still makes a later read of x local *)
              inv (Event.Read x);
              resp (Event.Read x) (Event.R_value (Value.int 0));
              (* two pending write invocations, then one R_ok *)
              inv (Event.Write (y, Value.int 2));
              inv (Event.Write (y, Value.int 3));
              resp (Event.Write (y, Value.int 3)) Event.R_ok;
              inv Event.Begin;
            ]
        in
        let read item v global pos =
          { History.item; value = Value.int v; global; pos }
        in
        check "index agrees" true (index_agrees hh);
        check "begin_pos is the first Begin, not the first event" true
          (History.begin_pos hh t1 = Some 1);
        check "a read after an aborted write invocation is local" true
          (History.reads hh t1 = [ read x 5 true 0; read x 0 false 6 ]);
        check "R_ok pairs with the latest pending write invocation" true
          (History.writes hh t1 = [ (y, Value.int 3) ]));
  ]

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
    (* the sweep's own classification comes from its judging memo: it
       must be the head of a fresh call on every execution *)
    Alcotest.test_case
      "satisfied = Sat names of matrix on the stock DPOR sweep (10 TMs)"
      `Slow (fun () ->
        let executions = ref 0 in
        List.iter
          (fun impl ->
            ignore
              (Explore_sweep.run ~por:true
                 ~on_execution:(fun ~strongest r ->
                   incr executions;
                   let hh = r.Sim.history in
                   let sat = Checkers.satisfied hh in
                   Alcotest.(check (list string))
                     (Registry.name impl)
                     (sat_names (Checkers.matrix hh))
                     sat;
                   Alcotest.(check string)
                     (Registry.name impl ^ ": memoised strongest")
                     (match sat with s :: _ -> s | [] -> "none")
                     strongest)
                 impl))
          Registry.all;
        check_int "executions" 5_346 !executions);
    (* the subject is the strongest-first accounting of one
       Checkers.satisfied call per execution, so the search is driven
       directly: the sweep judges each distinct history once *)
    Alcotest.test_case "decisions run + implied = 9 x executions" `Slow
      (fun () ->
        Sink.reset Sink.default;
        let executions =
          List.fold_left
            (fun n impl ->
              let stats =
                Explorer.explore ~max_steps:80 ~max_nodes:300_000 ~por:true
                  (Explore_sweep.setup impl) ~pids:Explore_sweep.pids
                  ~on_execution:(fun r ->
                    ignore (Checkers.satisfied r.Sim.history))
              in
              n + stats.Explorer.executions)
            0 Registry.all
        in
        let m = Sink.metrics Sink.default in
        let run = Metrics.sum_counters m "checker_verdict_total" in
        let implied = Metrics.sum_counters m "checker_implied_total" in
        check_int "executions" 5_346 executions;
        check_int "9 x executions" (9 * executions) (run + implied);
        check_int "stock sweep decisions" 48_114 (run + implied);
        check "at most 6,000 decisions run" true (run <= 6_000));
    Alcotest.test_case "the sweep judges each distinct history once" `Slow
      (fun () ->
        Sink.reset Sink.default;
        List.iter (fun impl -> ignore (Explore_sweep.run ~por:true impl))
          Registry.all;
        let m = Sink.metrics Sink.default in
        let run = Metrics.sum_counters m "checker_verdict_total" in
        let implied = Metrics.sum_counters m "checker_implied_total" in
        (* the strongest checker runs once per Checkers.satisfied call *)
        let calls =
          List.fold_left
            (fun n v ->
              match
                Metrics.find m "checker_verdict_total"
                  ~labels:
                    [ ("verdict", v); ("checker", "opacity(final-state)") ]
              with
              | Some (Metrics.VCounter k) -> n + k
              | _ -> n)
            0 [ "sat"; "unsat"; "out-of-budget" ]
        in
        check_int "Checkers.satisfied calls" 268 calls;
        check_int "decisions = 9 x distinct histories" (9 * 268)
          (run + implied);
        check_int "decisions run" 307 run;
        check_int "decisions implied" 2_105 implied);
  ]

(* Step stamps are not read by any consistency checker: re-stamping a
   history's events with arbitrary non-decreasing steps leaves every
   verdict, and the strongest-first answer, as it was.  The sweep's
   judging memo rests on this. *)
let restamp seed hh =
  let st = Random.State.make [| seed |] in
  let at = ref (Random.State.int st 5) in
  History.of_list
    (List.map
       (fun e ->
         at := !at + Random.State.int st 4;
         match e with
         | Event.Inv r -> Event.Inv { r with at = !at }
         | Event.Resp r -> Event.Resp { r with at = !at })
       (History.to_list hh))

let stamp_blind ?budget hh seed =
  let hh' = restamp seed hh in
  Checkers.matrix ?budget hh = Checkers.matrix ?budget hh'
  && Checkers.satisfied ?budget hh = Checkers.satisfied ?budget hh'

(* The judging memo's key drops the stamps and nothing else: a history
   keys the entry of another iff their events agree once stamps are
   zeroed — re-stamped copies hit, and a copy with one event's tid, pid,
   operation or response changed, or an event dropped, misses *)
let unstamped (e : Event.t) =
  match e with
  | Event.Inv r -> Event.Inv { r with at = 0 }
  | Event.Resp r -> Event.Resp { r with at = 0 }

let perturb st hh =
  let evs = Array.of_list (History.to_list hh) in
  let n = Array.length evs in
  let i = Random.State.int st n in
  (match (Random.State.int st 5, evs.(i)) with
  | 0, Event.Inv r -> evs.(i) <- Event.Inv { r with pid = r.pid + 1 }
  | 0, Event.Resp r -> evs.(i) <- Event.Resp { r with pid = r.pid + 1 }
  | 1, Event.Inv r -> evs.(i) <- Event.Inv { r with tid = Tid.v 9 }
  | 1, Event.Resp r -> evs.(i) <- Event.Resp { r with tid = Tid.v 9 }
  | 2, Event.Inv r -> evs.(i) <- Event.Inv { r with op = Event.Abort_call }
  | 2, Event.Resp r -> evs.(i) <- Event.Resp { r with op = Event.Abort_call }
  | 3, Event.Resp r ->
      evs.(i) <-
        Event.Resp
          {
            r with
            resp =
              (match r.resp with
              | Event.R_value v ->
                  Event.R_value (Value.int (1 + Value.to_int_exn v))
              | Event.R_aborted -> Event.R_committed
              | Event.R_ok | Event.R_committed -> Event.R_aborted);
          }
  | _ -> ());
  let evs = Array.to_list evs in
  History.of_list
    (if Random.State.int st 8 = 0 then List.filteri (fun j _ -> j < n - 1) evs
     else evs)

let stamp_tests =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~count:500
         ~name:"the memo key is a history without its stamps"
         QCheck.(triple (make gen_history) small_nat bool)
         (fun (hh, seed, restamped) ->
           QCheck.assume (History.length hh > 0);
           let other =
             if restamped then restamp seed hh
             else restamp seed (perturb (Random.State.make [| seed |]) hh)
           in
           let table = Explore_sweep.Unstamped.create 1 in
           Explore_sweep.Unstamped.add table hh ();
           Explore_sweep.Unstamped.mem table other
           = (List.map unstamped (History.to_list hh)
             = List.map unstamped (History.to_list other))));
    (* the memo's own hash mixes tags and ints, not [Hashtbl.hash]: a
       re-stamped copy must land in the same bucket *)
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~count:500
         ~name:"histories that differ only in stamps hash equal"
         QCheck.(pair (make gen_history) small_nat)
         (fun (hh, seed) ->
           Explore_sweep.Unstamped.hash hh
           = Explore_sweep.Unstamped.hash (restamp seed hh)));
    Alcotest.test_case "verdicts ignore step stamps on the catalogue" `Quick
      (fun () ->
        List.iter
          (fun (a : Anomalies.anomaly) ->
            List.iter
              (fun seed ->
                check a.Anomalies.name true
                  (stamp_blind a.Anomalies.history seed))
              [ 1; 2; 3 ])
          Anomalies.catalogue);
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~count:150
         ~name:"verdicts ignore step stamps on random histories"
         QCheck.(pair (make gen_history) small_nat)
         (fun (hh, seed) -> stamp_blind ~budget:400_000 hh seed));
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
  let bref = ref budget in
  Checker_util.exists_com hh (fun com ->
      let tids = Tid.Set.elements com in
      let points =
        Array.of_list
          (List.map
             (fun tid ->
               let lo, hi = Checker_util.active_window (Blocks.txn tbl tid) in
               { Placement.block = Blocks.Whole tid; lo; hi })
             tids)
      in
      Placement.satisfiable ~budget:bref tbl
        { Placement.points; prec = [];
          focus = (fun t -> Tid.Set.mem t.Blocks.tid com) })

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

let brute_force_satisfiable (h : History.t) (p : Placement.problem) : bool =
  let info_of = Blocks.info h in
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
              Blocks.eval ~focus:(fun _ -> true) info_of state
                p.Placement.points.(i).Placement.block
            with
            | Some state' -> replay state' rest
            | None -> false)
      in
      replay Item.Map.empty order)
    (permutations idxs)

(* random small placement problems: each point is a transaction with at
   most one global read and one write, of x or y, as a Fused or Whole
   block; every read is focused *)
let gen_problem : (History.t * Placement.problem) QCheck.Gen.t =
 fun st ->
  let n = 2 + Random.State.int st 3 in
  let items = [| "x"; "y" |] in
  let instrs = ref [] in
  let points =
    Array.init n (fun i ->
        let tid = i + 1 in
        let read =
          if Random.State.bool st then
            [ R (tid, items.(Random.State.int st 2), Random.State.int st 3) ]
          else []
        in
        let write =
          if Random.State.bool st then
            [ W (tid, items.(Random.State.int st 2), Random.State.int st 3) ]
          else []
        in
        instrs := !instrs @ ((B (tid, tid) :: read) @ write @ [ C tid ]);
        let lo = Random.State.int st 4 in
        let hi = lo + Random.State.int st 4 in
        let block =
          if Random.State.bool st then Blocks.Fused (Tid.v tid)
          else Blocks.Whole (Tid.v tid)
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
  (h !instrs, { Placement.points; prec; focus = (fun _ -> true) })

let brute_force_tests =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~count:300
         ~name:"optimized solver = brute force on small problems"
         (QCheck.make gen_problem)
         (fun (hh, p) ->
           let budget = ref 1_000_000 in
           let fast =
             match Placement.satisfiable ~budget (Blocks.table hh) p with
             | Spec.Sat -> true
             | Spec.Unsat -> false
             | Spec.Out_of_budget -> QCheck.assume_fail ()
           in
           fast = brute_force_satisfiable hh p));
  ]

(* ------------------------------------------------------------------ *)
(* the compiled searches against their slow oracles, Placement_ref and
   Views_ref: the same solutions in the same order, the same outcome and
   the same budget left *)

(* [n_txn] transactions, one after another, over x, y and z: reads of the
   state, reads after the transaction's own write (mostly of that write's
   value, sometimes not), and repeated writes to one item *)
let gen_txns st n_txn =
  let rand = Random.State.int st and items = [| "x"; "y"; "z" |] in
  let instrs = ref [] in
  for tid = 1 to n_txn do
    let own = Hashtbl.create 4 in
    instrs := B (tid, tid) :: !instrs;
    for _ = 1 to rand 6 do
      let x = items.(rand 3) in
      if rand 2 = 0 then begin
        let v = 1 + rand 2 in
        Hashtbl.replace own x v;
        instrs := W (tid, x, v) :: !instrs
      end
      else
        let v =
          match Hashtbl.find_opt own x with
          | Some v when rand 3 > 0 -> v
          | _ -> rand 3
        in
        instrs := R (tid, x, v) :: !instrs
    done;
    instrs :=
      (match rand 4 with 0 -> Cp tid | 1 -> Ca tid | _ -> C tid) :: !instrs
  done;
  h (List.rev !instrs)

(* 2-9 points over all five block kinds, windows that may be empty, and
   precedence pairs that may repeat or form cycles *)
let gen_points st n_txn =
  let rand = Random.State.int st in
  let n = 2 + rand 8 in
  let points =
    Array.init n (fun _ ->
        let tid = Tid.v (1 + rand n_txn) in
        let block =
          match rand 5 with
          | 0 -> Blocks.Greads tid
          | 1 -> Blocks.Wblock tid
          | 2 -> Blocks.Fused tid
          | 3 -> Blocks.Whole tid
          | _ -> Blocks.Whole_ghost tid
        in
        let lo = rand 6 in
        { Placement.block; lo; hi = lo - 1 + rand 7 })
  in
  let prec = List.init (rand 5) (fun _ -> (rand n, rand n)) in
  (points, prec)

let gen_focus st n_txn =
  let focused = Array.init (n_txn + 1) (fun _ -> Random.State.int st 3 > 0) in
  fun tid -> focused.(Tid.to_int tid)

let pp_points ppf (points, prec) =
  Array.iteri
    (fun i (pt : Placement.point) ->
      Fmt.pf ppf "%d: %a [%d,%d]@." i Blocks.pp_block pt.Placement.block
        pt.Placement.lo pt.Placement.hi)
    points;
  Fmt.pf ppf "prec %a@."
    Fmt.(list ~sep:sp (pair ~sep:(any "<") int int))
    prec

let ref_infos hh =
  let infos = List.map (fun tid -> (tid, Blocks.info hh tid)) (History.txns hh) in
  fun tid -> List.assoc tid infos

type search_case = {
  history : History.t;
  points : Placement.point array;
  prec : (int * int) list;
  focus : Tid.t -> bool;
  budget : int;
  stop_at : int;  (** stop at this solution; 0 never stops *)
}

let gen_search_case : search_case QCheck.Gen.t =
 fun st ->
  let n_txn = 1 + Random.State.int st 5 in
  let history = gen_txns st n_txn in
  let points, prec = gen_points st n_txn in
  {
    history;
    points;
    prec;
    focus = gen_focus st n_txn;
    budget =
      (if Random.State.bool st then 1 + Random.State.int st 30
       else 1 + Random.State.int st 5_000);
    stop_at = Random.State.int st 4;
  }

let print_search_case c =
  Fmt.str "budget %d, stop at %d@.%a@.%a" c.budget c.stop_at History.pp
    c.history pp_points (c.points, c.prec)

let run_search c solve =
  let budget = ref c.budget and sols = ref [] and found = ref 0 in
  let outcome =
    solve ~budget ~on_solution:(fun order ->
        sols := order :: !sols;
        incr found;
        !found = c.stop_at)
  in
  (List.rev !sols, outcome, !budget)

(* views sharing one point array, each with its own focus and precedence;
   the common-writer pairs are pairs of transactions, each carried by its
   own point *)
type views_case = {
  vhistory : History.t;
  vpoints : Placement.point array;
  views : (int * (int * int) list * (Tid.t -> bool)) list;
  w_point : (Tid.t * int) list;
  pairs : (Tid.t * Tid.t) list;
  vbudget : int;
}

let gen_views_case : views_case QCheck.Gen.t =
 fun st ->
  let rand = Random.State.int st in
  let n_txn = 2 + rand 4 in
  let vhistory = gen_txns st n_txn in
  let vpoints, _ = gen_points st n_txn in
  let n = Array.length vpoints in
  let views =
    List.init (1 + rand 3) (fun pid ->
        let _, prec = gen_points st n_txn in
        ( pid + 1,
          List.filter (fun (a, b) -> a < n && b < n) prec,
          gen_focus st n_txn ))
  in
  (* writers get distinct points *)
  let slots = Array.init n Fun.id in
  for i = n - 1 downto 1 do
    let j = rand (i + 1) in
    let t = slots.(i) in
    slots.(i) <- slots.(j);
    slots.(j) <- t
  done;
  let writers =
    List.filteri (fun i _ -> i < n && rand 3 > 0) (List.init n_txn (fun i -> Tid.v (i + 1)))
  in
  let w_point = List.mapi (fun i t -> (t, slots.(i))) writers in
  let rec pairs = function
    | [] -> []
    | a :: rest ->
        List.filter_map (fun b -> if rand 2 = 0 then Some (a, b) else None) rest
        @ pairs rest
  in
  {
    vhistory;
    vpoints;
    views;
    w_point;
    pairs = pairs writers;
    vbudget =
      (if Random.State.bool st then 1 + rand 30 else 1 + rand 5_000);
  }

let print_views_case c =
  Fmt.str "budget %d, pairs %s, writers %s@.%a@.%a" c.vbudget
    (String.concat " "
       (List.map (fun (a, b) -> Tid.name a ^ "/" ^ Tid.name b) c.pairs))
    (String.concat " "
       (List.map (fun (t, p) -> Printf.sprintf "%s@%d" (Tid.name t) p) c.w_point))
    History.pp c.vhistory pp_points (c.vpoints, [])

let compiled_search_tests =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~count:3_000
         ~name:"compiled placement search = Placement_ref, node for node"
         (QCheck.make ~print:print_search_case gen_search_case)
         (fun c ->
           let tbl = Blocks.table c.history in
           let compiled =
             run_search c (fun ~budget ~on_solution ->
                 Placement.solve ~budget tbl
                   {
                     Placement.points = c.points;
                     prec = c.prec;
                     focus = (fun t -> c.focus t.Blocks.tid);
                   }
                   ~on_solution)
           and reference =
             run_search c (fun ~budget ~on_solution ->
                 Placement_ref.solve ~budget
                   {
                     Placement_ref.points = c.points;
                     prec = c.prec;
                     focus = c.focus;
                     info_of = ref_infos c.history;
                   }
                   ~on_solution)
           in
           compiled = reference));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~count:2_000
         ~name:"indexed view search = Views_ref, node for node"
         (QCheck.make ~print:print_views_case gen_views_case)
         (fun c ->
           let tbl = Blocks.table c.vhistory in
           let run solve =
             let budget = ref c.vbudget and witness = ref [] in
             let v = solve ~budget ~witness in
             (v, !budget, !witness)
           in
           let w t = List.assoc t c.w_point in
           let compiled =
             run (fun ~budget ~witness ->
                 Views.solve_agreeing ~witness ~budget tbl
                   (List.map
                      (fun (pid, prec, focus) ->
                        {
                          Views.view_pid = pid;
                          problem =
                            {
                              Placement.points = c.vpoints;
                              prec;
                              focus = (fun t -> focus t.Blocks.tid);
                            };
                        })
                      c.views)
                   ~pairs:(Array.of_list (List.map (fun (a, b) -> (w a, w b)) c.pairs)))
           and reference =
             let info_of = ref_infos c.vhistory in
             run (fun ~budget ~witness ->
                 Views_ref.solve_agreeing ~witness ~budget
                   (List.map
                      (fun (pid, prec, focus) ->
                        {
                          Views_ref.view_pid = pid;
                          problem =
                            { Placement_ref.points = c.vpoints; prec; focus; info_of };
                          w_point = (fun t -> List.assoc_opt t c.w_point);
                        })
                      c.views)
                   ~pairs:c.pairs)
           in
           compiled = reference));
  ]

(* ------------------------------------------------------------------ *)
(* the weak-adaptive stop rule against the full enumeration
   (Weak_adaptive_ref) *)

(* gen_history's histories with each committed transaction left
   commit-pending (its commit response dropped) with probability 1/3, so
   that com(alpha) ranges over subsets, down to the empty set *)
let gen_pending_history : History.t QCheck.Gen.t =
 fun st ->
  let h = gen_history st in
  let pending =
    List.filter (fun _ -> Random.State.int st 3 = 0) (History.txns h)
  in
  let kept = function
    | Event.Resp { tid; op = Event.Try_commit; resp = Event.R_committed; _ }
      ->
        not (List.exists (Tid.equal tid) pending)
    | _ -> true
  in
  History.of_list (List.mapi stamp (List.filter kept (History.to_list h)))

(* the proof's delta-lemma shape of filter: com(alpha) must (or must not)
   contain one transaction *)
let com_filter (tid, inside) com = Tid.Set.mem (Tid.v tid) com = inside

let wac_agrees ~budget ~filter h =
  let same name a b =
    if a = b then true
    else QCheck.Test.fail_reportf "%s differs at budget %d" name budget
  in
  let com_filter = com_filter filter in
  same "check"
    (Weak_adaptive.check ~budget h)
    (Weak_adaptive_ref.check ~budget h)
  && same "check ~com_filter"
       (Weak_adaptive.check ~budget ~com_filter h)
       (Weak_adaptive_ref.check ~budget ~com_filter h)
  && same "explain"
       (Weak_adaptive.explain ~budget h)
       (Weak_adaptive_ref.explain ~budget h)

(* the smallest budget at which the full enumeration decides [h]: it
   spends exactly that many nodes, the last one on its last choice *)
let nodes_to_decide h =
  let rec go b =
    if Weak_adaptive_ref.check ~budget:b h = Spec.Out_of_budget then go (b + 1)
    else b
  in
  go 1

let wac_stop_tests =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~count:400
         ~name:"stop rule = full enumeration (budgets 1-3,000)"
         (QCheck.make
            ~print:(fun (h, budget, (tid, inside)) ->
              Fmt.str "budget %d, com_filter T%d %s@.%a" budget tid
                (if inside then "in" else "out")
                History.pp h)
            QCheck.Gen.(
              triple gen_pending_history
                (* half the budgets small enough to run out *)
                (oneof [ int_range 1 30; int_range 1 3_000 ])
                (pair (int_range 1 3) bool)))
         (fun (h, budget, filter) -> wac_agrees ~budget ~filter h));
    Alcotest.test_case "a budget spent on the last node of the last choice"
      `Quick (fun () ->
        (* delta1 is Unsat: at exactly its node count the search decides
           on its very last node and nothing is left to stop; one node
           fewer and the last choice runs out *)
        let hh = delta1_history ~b1:0 in
        let n = nodes_to_decide hh in
        check "several nodes" true (n > 2);
        check "unsat at the node count" true
          (Weak_adaptive.check ~budget:n hh = Spec.Unsat);
        check "out of budget one node short" true
          (Weak_adaptive.check ~budget:(n - 1) hh = Spec.Out_of_budget);
        check "unsat above" true
          (Weak_adaptive.check ~budget:(n + 1) hh = Spec.Unsat));
    Alcotest.test_case "a spent budget still reaches the empty com(alpha)"
      `Quick (fun () ->
        (* both transactions commit-pending: com(alpha) runs from {T1, T2}
           down to {}, which needs no search node *)
        let hh =
          h [ B (1, 1); W (1, "x", 7); Cp 1; B (2, 2); R (2, "x", 7); Cp 2 ]
        in
        check "sat" true (Weak_adaptive.check ~budget:1 hh = Spec.Sat);
        (match Weak_adaptive.explain ~budget:1 hh with
        | Some w -> check "empty com" true (w.Witness.com = [])
        | None -> Alcotest.fail "no witness");
        check "= full enumeration" true
          (wac_agrees ~budget:1 ~filter:(2, false) hh));
    Alcotest.test_case
      "stop rule = full enumeration on the stock sweep and its cores" `Slow
      (fun () ->
        let seen = Hashtbl.create 1024 in
        let add hh = Hashtbl.replace seen (History.to_list hh) hh in
        List.iter
          (fun impl ->
            ignore
              (Explore_sweep.run ~por:true
                 ~on_execution:(fun ~strongest:_ r ->
                   add r.Sim.history;
                   add (Crash_closure.core r.Sim.history))
                 impl))
          Registry.all;
        Hashtbl.iter
          (fun _ hh ->
            List.iter
              (fun budget ->
                check "agrees" true (wac_agrees ~budget ~filter:(2, false) hh))
              [ 1; 2; 5; 10; 100; 1_000; 60_000 ])
          seen);
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
      ("compiled-search", compiled_search_tests);
      ("enumerators", enumerator_tests);
      ("placement", placement_tests);
      ("delta1", delta1_tests);
      ("commit-pending", pending_tests);
      ("si-windows", si_window_tests);
      ("hierarchy", hierarchy_tests);
      ("history-index", index_tests);
      ("fast-path", fast_path_tests);
      ("step-stamps", stamp_tests);
      ("wac-stop-rule", wac_stop_tests);
    ]

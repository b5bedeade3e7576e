(* Tests for conflicts, contention, the DAP variants and the
   obstruction-freedom detector (tm_dap). *)

open Core
open Build

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let items l = Item.set_of_list (List.map Item.v l)

let ds =
  [ (Tid.v 1, items [ "x"; "y" ]);
    (Tid.v 2, items [ "y"; "z" ]);
    (Tid.v 3, items [ "z" ]);
    (Tid.v 4, items [ "w" ]) ]

let conflict_tests =
  [
    Alcotest.test_case "conflict iff data sets intersect" `Quick (fun () ->
        check "1-2 conflict" true (Conflict.conflict ds (Tid.v 1) (Tid.v 2));
        check "2-3 conflict" true (Conflict.conflict ds (Tid.v 2) (Tid.v 3));
        check "1-3 disjoint" false (Conflict.conflict ds (Tid.v 1) (Tid.v 3));
        check "no self conflict" false (Conflict.conflict ds (Tid.v 1) (Tid.v 1));
        check "unknown tid empty set" false
          (Conflict.conflict ds (Tid.v 1) (Tid.v 9));
        (* as with List.assoc, the first binding of a transaction wins *)
        let shadowed = Conflict.conflict (ds @ [ (Tid.v 1, items [ "w" ]) ]) in
        check "later binding ignored" false (shadowed (Tid.v 1) (Tid.v 4)));
    Alcotest.test_case "graph distances" `Quick (fun () ->
        let g = Conflict.graph ds [ Tid.v 1; Tid.v 2; Tid.v 3; Tid.v 4 ] in
        check "d(1,1)=0" true (Conflict.distance g (Tid.v 1) (Tid.v 1) = Some 0);
        check "d(1,2)=1" true (Conflict.distance g (Tid.v 1) (Tid.v 2) = Some 1);
        check "d(1,3)=2" true (Conflict.distance g (Tid.v 1) (Tid.v 3) = Some 2);
        check "4 disconnected" true
          (Conflict.distance g (Tid.v 1) (Tid.v 4) = None);
        check "connected" true (Conflict.connected g (Tid.v 1) (Tid.v 3));
        check "not connected" false (Conflict.connected g (Tid.v 1) (Tid.v 4)));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~count:500
         ~name:"connected = a shortest path exists, on random data sets"
         (QCheck.make
            ~print:(fun (ds, nodes) ->
              Fmt.str "%s; nodes %s"
                (String.concat " "
                   (List.map
                      (fun (t, s) ->
                        Tid.name t ^ ":"
                        ^ String.concat "," (Item.Set.elements s))
                      ds))
                (String.concat "," (List.map Tid.name nodes)))
            (fun st ->
              let rand = Random.State.int st in
              let pool = [| "a"; "b"; "c"; "d"; "e"; "f" |] in
              (* tids 1..8, some with no data set, some bound twice *)
              let ds =
                List.init (rand 10) (fun _ ->
                    ( Tid.v (1 + rand 8),
                      items (List.init (rand 3) (fun _ -> pool.(rand 6))) ))
              in
              (ds, List.init (rand 9) (fun _ -> Tid.v (1 + rand 8)))))
         (fun (ds, nodes) ->
           let g = Conflict.graph ds nodes in
           List.for_all
             (fun a ->
               List.for_all
                 (fun b ->
                   Conflict.connected g (Tid.v a) (Tid.v b)
                   = (Conflict.distance g (Tid.v a) (Tid.v b) <> None))
                 (List.init 9 Fun.id))
             (List.init 9 Fun.id)));
  ]

(* build a synthetic log via a real Memory *)
let synthetic_log accesses =
  let m = Memory.create () in
  let o1 = Memory.alloc m ~name:"o1" (Value.int 0) in
  let o2 = Memory.alloc m ~name:"o2" (Value.int 0) in
  let oid = function 1 -> o1 | _ -> o2 in
  List.iter
    (fun (pid, tid, o, nontrivial) ->
      let prim =
        if nontrivial then Primitive.Write (Value.int pid) else Primitive.Read
      in
      ignore (Memory.apply m ~pid ~tid:(Tid.v tid) (oid o) prim))
    accesses;
  Access_log.whole (Memory.log m)

let contention_tests =
  [
    Alcotest.test_case "no contention between pure readers" `Quick (fun () ->
        let log =
          synthetic_log [ (1, 1, 1, false); (2, 2, 1, false) ]
        in
        check_int "none" 0 (List.length (Contention.all_contentions log)));
    Alcotest.test_case "writer vs reader contend" `Quick (fun () ->
        let log = synthetic_log [ (1, 1, 1, true); (2, 2, 1, false) ] in
        match Contention.all_contentions log with
        | [ c ] ->
            check "objects" true (List.length c.Contention.objects = 1)
        | l -> Alcotest.failf "expected 1 contention, got %d" (List.length l));
    Alcotest.test_case "different objects never contend" `Quick (fun () ->
        let log = synthetic_log [ (1, 1, 1, true); (2, 2, 2, true) ] in
        check_int "none" 0 (List.length (Contention.all_contentions log)));
    Alcotest.test_case "steps without txn attribution are ignored" `Quick
      (fun () ->
        let m = Memory.create () in
        let o = Memory.alloc m ~name:"o" (Value.int 0) in
        ignore (Memory.apply m ~pid:1 o (Primitive.Write (Value.int 1)));
        ignore (Memory.apply m ~pid:2 o (Primitive.Write (Value.int 2)));
        check_int "none" 0
          (List.length
             (Contention.all_contentions (Access_log.whole (Memory.log m)))));
  ]

let dap_tests =
  [
    Alcotest.test_case "strict DAP: conflicting contention allowed" `Quick
      (fun () ->
        let log = synthetic_log [ (1, 1, 1, true); (2, 2, 1, true) ] in
        (* T1 and T2 conflict on y in ds *)
        check "no violation" true (Strict_dap.holds ~data_sets:ds log));
    Alcotest.test_case "strict DAP: disjoint contention flagged" `Quick
      (fun () ->
        let log = synthetic_log [ (1, 1, 1, true); (3, 3, 1, true) ] in
        (* T1 and T3 are disjoint *)
        match Strict_dap.violations ~data_sets:ds log with
        | [ v ] ->
            check "pair" true
              ((Tid.equal v.Strict_dap.t1 (Tid.v 1)
               && Tid.equal v.Strict_dap.t2 (Tid.v 3))
              || (Tid.equal v.Strict_dap.t1 (Tid.v 3)
                 && Tid.equal v.Strict_dap.t2 (Tid.v 1)))
        | l -> Alcotest.failf "expected 1 violation, got %d" (List.length l));
    Alcotest.test_case "graph DAP: chain-justified contention allowed" `Quick
      (fun () ->
        (* T1 and T3 contend but are connected through T2, which also
           executes in the interval (the conflict graph only contains
           transactions of the execution) *)
        let log =
          synthetic_log
            [ (1, 1, 1, true); (2, 2, 2, false); (3, 3, 1, true) ]
        in
        check "strict violated" false (Strict_dap.holds ~data_sets:ds log);
        check "graph ok" true (Graph_dap.holds ~data_sets:ds log));
    Alcotest.test_case "graph DAP: chain absent from execution is no excuse"
      `Quick (fun () ->
        (* same contention, but T2 takes no step: disconnected *)
        let log = synthetic_log [ (1, 1, 1, true); (3, 3, 1, true) ] in
        check "graph violated" false (Graph_dap.holds ~data_sets:ds log));
    Alcotest.test_case "graph DAP: disconnected contention flagged" `Quick
      (fun () ->
        let log = synthetic_log [ (1, 1, 1, true); (4, 4, 1, true) ] in
        match Graph_dap.violations ~data_sets:ds log with
        | [ v ] -> check "disconnected" true (v.Graph_dap.distance = None)
        | l -> Alcotest.failf "expected 1 violation, got %d" (List.length l));
    Alcotest.test_case "d-local contention bound" `Quick (fun () ->
        let log =
          synthetic_log
            [ (1, 1, 1, true); (2, 2, 2, false); (3, 3, 1, true) ]
        in
        (* distance(T1,T3) = 2: allowed at d=2, flagged at d=1 *)
        check "d=2 ok" true (Graph_dap.holds ~d:2 ~data_sets:ds log);
        check "d=1 violated" false (Graph_dap.holds ~d:1 ~data_sets:ds log));
  ]

let of_tests =
  [
    Alcotest.test_case "abort with step contention is fine" `Quick (fun () ->
        let m = Memory.create () in
        let o = Memory.alloc m ~name:"o" (Value.int 0) in
        (* T1's steps bracket a step by p2 *)
        ignore (Memory.apply m ~pid:1 ~tid:(Tid.v 1) o Primitive.Read);
        ignore (Memory.apply m ~pid:2 ~tid:(Tid.v 2) o (Primitive.Write (Value.int 1)));
        ignore (Memory.apply m ~pid:1 ~tid:(Tid.v 1) o Primitive.Read);
        let h =
          Build.history [ B (1, 1); R (1, "x", 0); Ca 1; B (2, 2); C 2 ]
        in
        check "no violation" true
          (Obstruction_freedom.holds h (Access_log.whole (Memory.log m))));
    Alcotest.test_case "abort without contention is flagged" `Quick (fun () ->
        let m = Memory.create () in
        let o = Memory.alloc m ~name:"o" (Value.int 0) in
        ignore (Memory.apply m ~pid:1 ~tid:(Tid.v 1) o Primitive.Read);
        ignore (Memory.apply m ~pid:1 ~tid:(Tid.v 1) o Primitive.Read);
        let h = Build.history [ B (1, 1); R (1, "x", 0); Ca 1 ] in
        match
          Obstruction_freedom.violations h (Access_log.whole (Memory.log m))
        with
        | [ v ] -> check "t1" true (Tid.equal v.Obstruction_freedom.tid (Tid.v 1))
        | l -> Alcotest.failf "expected 1 violation, got %d" (List.length l));
    Alcotest.test_case "committed transactions never flagged" `Quick
      (fun () ->
        let m = Memory.create () in
        let o = Memory.alloc m ~name:"o" (Value.int 0) in
        ignore (Memory.apply m ~pid:1 ~tid:(Tid.v 1) o Primitive.Read);
        let h = Build.history [ B (1, 1); R (1, "x", 0); C 1 ] in
        check "no violation" true
          (Obstruction_freedom.holds h (Access_log.whole (Memory.log m))));
    Alcotest.test_case "zero-step aborted txn uses event interval" `Quick
      (fun () ->
        (* a txn that took no shared steps and aborted alone *)
        let h = Build.history [ B (1, 1); Ca 1 ] in
        match
          Obstruction_freedom.violations h
            (Access_log.whole (Access_log.create ()))
        with
        | [ _ ] -> ()
        | l -> Alcotest.failf "expected 1 violation, got %d" (List.length l));
    Alcotest.test_case "abort begun before the window is not judged" `Quick
      (fun () ->
        (* T1 begins at step 0 and p2 steps inside its interval, but a
           window from step 2 holds only T1's later steps *)
        let m = Memory.create () in
        let o = Memory.alloc m ~name:"o" (Value.int 0) in
        ignore (Memory.apply m ~pid:1 ~tid:(Tid.v 1) o Primitive.Read);
        ignore
          (Memory.apply m ~pid:2 ~tid:(Tid.v 2) o (Primitive.Write (Value.int 1)));
        ignore (Memory.apply m ~pid:1 ~tid:(Tid.v 1) o Primitive.Read);
        ignore (Memory.apply m ~pid:1 ~tid:(Tid.v 1) o Primitive.Read);
        let h = Build.history [ B (1, 1); R (1, "x", 0); Ca 1; B (2, 2); C 2 ] in
        let log = Memory.log m in
        check "whole log: contended" true
          (Obstruction_freedom.holds h (Access_log.whole log));
        check "window from step 2: not judged" true
          (Obstruction_freedom.holds h (Access_log.window log ~pos:2 ~len:2)));
  ]

let () =
  Alcotest.run "dap"
    [
      ("conflict", conflict_tests);
      ("contention", contention_tests);
      ("dap-variants", dap_tests);
      ("obstruction-freedom", of_tests);
    ]

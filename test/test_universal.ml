(* Tests for the universal constructions: linearizable behaviour under all
   interleavings, helping, wait-free interference bounds, and the non-DAP
   centralization that motivated the paper's Section-2 lineage. *)

open Core

let check = Alcotest.(check bool)

(* run a two-process world where each process performs [ops] via [invoke]
   and records responses *)
let world ~mk_obj ~ops_of =
  let responses : (int, Value.t list) Hashtbl.t = Hashtbl.create 4 in
  let setup mem (_ : Recorder.t) =
    (* a fresh replay starts a fresh world: drop previous responses *)
    Hashtbl.reset responses;
    let invoke = mk_obj mem in
    List.map
      (fun pid ->
        ( pid,
          fun () ->
            List.iter
              (fun op ->
                let r = invoke ~pid op in
                Hashtbl.replace responses pid
                  (Option.value ~default:[] (Hashtbl.find_opt responses pid)
                  @ [ r ]))
              (ops_of pid) ))
      [ 1; 2 ]
  in
  (setup, responses)

let lf_counter mem =
  let c = Universal.Lock_free.create mem (module Seq_object.Counter) in
  fun ~pid:_ op -> Universal.Lock_free.invoke c op

let wf_counter mem =
  let c =
    Universal.Wait_free.create mem (module Seq_object.Counter) ~n_procs:3
  in
  fun ~pid op -> Universal.Wait_free.invoke c ~me:(pid - 1) op

let incs _pid = [ Value.int 1; Value.int 1 ]

let counter_props name mk_obj =
  [
    Alcotest.test_case (name ^ ": sequential counter semantics") `Quick
      (fun () ->
        let setup, responses = world ~mk_obj ~ops_of:incs in
        let r =
          Sim.replay setup [ Schedule.Until_done 1; Schedule.Until_done 2 ]
        in
        check "completed" true (r.Sim.report.Schedule.stop = Schedule.Completed);
        let all =
          List.concat_map
            (fun pid ->
              Option.value ~default:[] (Hashtbl.find_opt responses pid))
            [ 1; 2 ]
        in
        let ints = List.sort compare (List.map Value.to_int_exn all) in
        check "responses are 0..3" true (ints = [ 0; 1; 2; 3 ]));
    Alcotest.test_case (name ^ ": all interleavings linearizable") `Quick
      (fun () ->
        let setup, responses = world ~mk_obj ~ops_of:incs in
        let result =
          Explorer.for_all ~max_nodes:400_000 setup ~pids:[ 1; 2 ] (fun r ->
              r.Sim.report.Schedule.stop = Schedule.Completed
              &&
              let all =
                List.concat_map
                  (fun pid ->
                    Option.value ~default:[]
                      (Hashtbl.find_opt responses pid))
                  [ 1; 2 ]
              in
              List.sort compare (List.map Value.to_int_exn all)
              = [ 0; 1; 2; 3 ])
        in
        check "holds" true (Result.is_ok result));
  ]

let helping_tests =
  [
    Alcotest.test_case "wait-free: a helper completes a suspended op" `Quick
      (fun () ->
        (* p1 announces an increment then suspends; p2 performs its own
           increment — which must also apply p1's *)
        let got1 = ref None and got2 = ref None in
        let setup mem (_ : Recorder.t) =
          let c =
            Universal.Wait_free.create mem (module Seq_object.Counter)
              ~n_procs:2
          in
          [ (1, fun () -> got1 := Some (Universal.Wait_free.invoke c ~me:0 (Value.int 1)));
            (2, fun () -> got2 := Some (Universal.Wait_free.invoke c ~me:1 (Value.int 1))) ]
        in
        (* one step of p1 = its announce write; then p2 runs fully *)
        let r =
          Sim.replay setup
            [ Schedule.Steps (1, 1); Schedule.Until_done 2;
              Schedule.Until_done 1 ]
        in
        check "completed" true (r.Sim.report.Schedule.stop = Schedule.Completed);
        let v1 = Value.to_int_exn (Option.get !got1) in
        let v2 = Value.to_int_exn (Option.get !got2) in
        check "distinct results" true (v1 <> v2);
        check "both from {0,1}" true
          (List.sort compare [ v1; v2 ] = [ 0; 1 ]);
        (* after p2's single successful CAS both ops are applied: p1 only
           needs a couple of reads to pick up its response *)
        check "p1 finished cheaply" true (r.Sim.steps_of 1 <= 6));
    Alcotest.test_case "wait-free: bounded steps under strict alternation"
      `Quick (fun () ->
        let setup, _ = world ~mk_obj:wf_counter ~ops_of:incs in
        let atoms =
          List.concat
            (List.init 200 (fun _ ->
                 [ Schedule.Steps (1, 1); Schedule.Steps (2, 1) ]))
        in
        let r = Sim.replay setup atoms in
        check "both done well within the alternation" true
          (r.Sim.finished 1 && r.Sim.finished 2));
    Alcotest.test_case "queue: enqueues from two processes, fifo drain"
      `Quick (fun () ->
        let drained = ref [] in
        let setup mem (_ : Recorder.t) =
          let q = Universal.Lock_free.create mem (module Seq_object.Queue) in
          [ (1, fun () ->
               ignore (Universal.Lock_free.invoke q (Seq_object.enq (Value.int 1)));
               ignore (Universal.Lock_free.invoke q (Seq_object.enq (Value.int 2))));
            (2, fun () ->
               ignore (Universal.Lock_free.invoke q (Seq_object.enq (Value.int 3))));
            (3, fun () ->
               for _ = 1 to 3 do
                 match Universal.Lock_free.invoke q Seq_object.deq with
                 | Value.VList [ v ] -> drained := Value.to_int_exn v :: !drained
                 | _ -> ()
               done) ]
        in
        let r =
          Sim.replay setup
            [ Schedule.Until_done 1; Schedule.Until_done 2;
              Schedule.Until_done 3 ]
        in
        check "completed" true (r.Sim.report.Schedule.stop = Schedule.Completed);
        (* p1's enqueues keep their order; p2's lands somewhere *)
        let order = List.rev !drained in
        check "all three" true (List.sort compare order = [ 1; 2; 3 ]);
        check "1 before 2" true
          (let i1 = List.nth order (0) in
           ignore i1;
           let rec idx v = function
             | [] -> -1
             | x :: r -> if x = v then 0 else 1 + idx v r
           in
           idx 1 order < idx 2 order));
  ]

let dap_tests =
  [
    Alcotest.test_case
      "universal constructions centralize: disjoint ops contend" `Quick
      (fun () ->
        (* two processes touch 'logically disjoint' halves of a register
           object; they still collide on the single state cell — the
           motivation for DAP universal constructions [2,15,37] *)
        let setup mem (_ : Recorder.t) =
          let c = Universal.Lock_free.create mem (module Seq_object.Counter) in
          [ (1, fun () ->
               ignore (Universal.Lock_free.invoke c ~tid:(Tid.v 1) (Value.int 1)));
            (2, fun () ->
               ignore (Universal.Lock_free.invoke c ~tid:(Tid.v 2) (Value.int 1))) ]
        in
        let r =
          Sim.replay setup [ Schedule.Until_done 1; Schedule.Until_done 2 ]
        in
        check "contention exists" true
          (Contention.all_contentions
             (Access_log.whole (Memory.log r.Sim.mem))
          <> []));
  ]


(* full linearizability checking over all interleavings, for both
   constructions, on the register object (writes and reads) *)
let linearizability_tests =
  let ops_of pid =
    [ Seq_object.write (Value.int pid); Seq_object.read_op ]
  in
  let recorded = ref [] in
  let record_world mk_invoke : Sim.setup =
   fun mem _ ->
    recorded := [];
    let invoke = mk_invoke mem in
    List.map
      (fun pid ->
        ( pid,
          fun () ->
            List.iter
              (fun op ->
                let inv = Memory.step_count mem in
                let result = invoke ~pid op in
                let resp = Memory.step_count mem in
                recorded :=
                  { Linearizability.pid; op; result; inv; resp } :: !recorded)
              (ops_of pid) ))
      [ 1; 2 ]
  in
  let mk_lf mem =
    let c = Universal.Lock_free.create mem (module Seq_object.Register) in
    fun ~pid:_ op -> Universal.Lock_free.invoke c op
  in
  let mk_wf mem =
    let c =
      Universal.Wait_free.create mem (module Seq_object.Register) ~n_procs:2
    in
    fun ~pid op -> Universal.Wait_free.invoke c ~me:(pid - 1) op
  in
  List.map
    (fun (name, mk) ->
      Alcotest.test_case (name ^ ": every interleaving linearizable") `Quick
        (fun () ->
          let result =
            Explorer.for_all ~max_nodes:500_000 (record_world mk)
              ~pids:[ 1; 2 ] (fun r ->
                r.Sim.report.Schedule.stop = Schedule.Completed
                && Linearizability.check (module Seq_object.Register)
                     !recorded)
          in
          check "holds" true (Result.is_ok result)))
    [ ("lock-free register", mk_lf); ("wait-free register", mk_wf) ]

let lin_unit_tests =
  [
    Alcotest.test_case "rejects an impossible run" `Quick (fun () ->
        (* read returns 5 though nobody wrote 5, with disjoint intervals *)
        let ops =
          [ { Linearizability.pid = 1; op = Seq_object.write (Value.int 1);
              result = Value.initial; inv = 0; resp = 1 };
            { Linearizability.pid = 2; op = Seq_object.read_op;
              result = Value.int 5; inv = 2; resp = 3 } ]
        in
        check "rejected" false
          (Linearizability.check (module Seq_object.Register) ops));
    Alcotest.test_case "respects real time" `Quick (fun () ->
        (* the read finished before the write began, yet saw its value *)
        let ops =
          [ { Linearizability.pid = 2; op = Seq_object.read_op;
              result = Value.int 1; inv = 0; resp = 1 };
            { Linearizability.pid = 1; op = Seq_object.write (Value.int 1);
              result = Value.initial; inv = 2; resp = 3 } ]
        in
        check "rejected" false
          (Linearizability.check (module Seq_object.Register) ops);
        (* overlapping intervals make it fine *)
        let ops_ok =
          [ { Linearizability.pid = 2; op = Seq_object.read_op;
              result = Value.int 1; inv = 0; resp = 3 };
            { Linearizability.pid = 1; op = Seq_object.write (Value.int 1);
              result = Value.initial; inv = 1; resp = 2 } ]
        in
        check "accepted" true
          (Linearizability.check (module Seq_object.Register) ops_ok));
  ]

let () =
  Alcotest.run "universal"
    [
      ("lock-free counter", counter_props "lock-free" lf_counter);
      ("linearizability", lin_unit_tests @ linearizability_tests);
      ("wait-free counter", counter_props "wait-free" wf_counter);
      ("helping", helping_tests);
      ("dap", dap_tests);
    ]

(* Universal constructions over the same substrate as the TMs — the
   Section-2 related-work lineage made runnable.

   A counter is wrapped by the lock-free (CAS-retry) and wait-free
   (announce-and-help) constructions; both are exercised under adversarial
   schedules, and the access log shows why such constructions motivated
   disjoint-access-parallelism research: every operation, however
   "logically disjoint", collides on the single hot object.

     dune exec examples/universal_demo.exe
*)

open Core

let () =
  (* 1. lock-free counter: two processes, two increments each *)
  let responses = Hashtbl.create 4 in
  let setup mem (_ : Recorder.t) =
    Hashtbl.reset responses;
    let c = Universal.Lock_free.create mem (module Seq_object.Counter) in
    List.map
      (fun pid ->
        ( pid,
          fun () ->
            for _ = 1 to 2 do
              let r =
                Universal.Lock_free.invoke c ~tid:(Tid.v pid) (Value.int 1)
              in
              Hashtbl.replace responses pid
                (Option.value ~default:[] (Hashtbl.find_opt responses pid)
                @ [ Value.to_int_exn r ])
            done ))
      [ 1; 2 ]
  in
  let r =
    Sim.replay setup
      [ Schedule.Steps (1, 3); Schedule.Steps (2, 5); Schedule.Until_done 1;
        Schedule.Until_done 2 ]
  in
  Format.printf "lock-free counter under an interleaved schedule:@.";
  List.iter
    (fun pid ->
      Format.printf "  p%d responses: %s@." pid
        (String.concat ", "
           (List.map string_of_int
              (Option.value ~default:[] (Hashtbl.find_opt responses pid)))))
    [ 1; 2 ];
  Format.printf "  steps: %d, contentions: %d (every op hits the one cell)@."
    (Memory.step_count r.Sim.mem)
    (List.length
       (Contention.all_contentions
          (Access_log.whole (Memory.log r.Sim.mem))));

  (* 2. wait-free helping: p1 announces and is suspended; p2's single
     successful CAS applies both operations *)
  let got1 = ref None and got2 = ref None in
  let setup mem (_ : Recorder.t) =
    let c =
      Universal.Wait_free.create mem (module Seq_object.Counter) ~n_procs:2
    in
    [ (1, fun () -> got1 := Some (Universal.Wait_free.invoke c ~me:0 (Value.int 10)));
      (2, fun () -> got2 := Some (Universal.Wait_free.invoke c ~me:1 (Value.int 100))) ]
  in
  let r =
    Sim.replay setup
      [ Schedule.Steps (1, 1) (* p1 announces, then sleeps *);
        Schedule.Until_done 2; Schedule.Until_done 1 ]
  in
  Format.printf "@.wait-free counter, p1 suspended after announcing:@.";
  Format.printf "  p2 (running alone) got %a — it helped apply p1's op too@."
    Fmt.(option Value.pp_compact) !got2;
  Format.printf "  p1, resumed, finished in %d further steps with %a@."
    (r.Sim.steps_of 1 - 1)
    Fmt.(option Value.pp_compact) !got1;

  (* 3. a queue, because universal means universal *)
  let drained = ref [] in
  let setup mem (_ : Recorder.t) =
    let q = Universal.Lock_free.create mem (module Seq_object.Queue) in
    [ (1, fun () ->
         List.iter
           (fun v -> ignore (Universal.Lock_free.invoke q (Seq_object.enq (Value.int v))))
           [ 1; 2; 3 ]);
      (2, fun () ->
         for _ = 1 to 3 do
           match Universal.Lock_free.invoke q Seq_object.deq with
           | Value.VList [ v ] -> drained := Value.to_int_exn v :: !drained
           | _ -> ()
         done) ]
  in
  let (_ : Sim.result) =
    Sim.replay setup [ Schedule.Until_done 1; Schedule.Until_done 2 ]
  in
  Format.printf "@.queue drained in order: %s@."
    (String.concat ", " (List.map string_of_int (List.rev !drained)))

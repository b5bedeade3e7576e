(* Quickstart: run two conflicting bank-transfer transactions on the DSTM
   implementation under three different schedules, print the resulting
   histories, and ask the consistency checkers what each execution
   satisfies.

     dune exec examples/quickstart.exe
*)

open Core

let acc_a = Item.v "account_a"
let acc_b = Item.v "account_b"
let acc_c = Item.v "account_c"

(* transfer 30 from a to b, and 20 from b to c, as static transactions *)
let transfer_ab =
  {
    Static_txn.tid = Tid.v 1;
    pid = 1;
    reads = [ acc_a; acc_b ];
    writes = [ (acc_a, Value.int 70); (acc_b, Value.int 130) ];
  }

let transfer_bc =
  {
    Static_txn.tid = Tid.v 2;
    pid = 2;
    reads = [ acc_b; acc_c ];
    writes = [ (acc_b, Value.int 80); (acc_c, Value.int 120) ];
  }

let specs = [ transfer_ab; transfer_bc ]

let run_schedule (module M : Tm_intf.S) name schedule =
  let r =
    Sim.replay (Static_txn.setup specs (module M) (Hashtbl.create 8)) schedule
  in
  Format.printf "--- %s under schedule %a (%d steps) ---@." name Schedule.pp
    schedule
    (Memory.step_count r.Sim.mem);
  Format.printf "%a@." History.pp r.Sim.history;
  Format.printf "satisfies: %s@.@."
    (String.concat ", " (Checkers.satisfied r.Sim.history))

let () =
  let tm = (module Dstm_tm : Tm_intf.S) in
  Format.printf "TM under test: %s — %s@.@." Dstm_tm.name Dstm_tm.describe;
  (* sequential *)
  run_schedule tm "sequential" [ Schedule.Until_done 1; Schedule.Until_done 2 ];
  (* coarse interleaving: T1 runs half-way, then T2 runs to completion,
     then T1 finishes *)
  run_schedule tm "interleaved"
    [ Schedule.Steps (1, 6); Schedule.Until_done 2; Schedule.Until_done 1 ];
  (* fine interleaving: strict alternation *)
  let alternating =
    List.concat (List.init 40 (fun _ -> [ Schedule.Steps (1, 1); Schedule.Steps (2, 1) ]))
    @ [ Schedule.Until_done 1; Schedule.Until_done 2 ]
  in
  run_schedule tm "alternating" alternating;
  Format.printf
    "Note: whatever the schedule, committed transactions stay strictly \
     serializable — aborts are DSTM's contention answer.@.";

  (* the dynamic API: retried read-modify-writes via Atomically *)
  let balance = ref None in
  let setup mem recorder =
    let handle =
      Txn_api.instantiate (module Dstm_tm) mem recorder
        ~items:[ acc_a; acc_b ]
    in
    let deposit pid amount () =
      for _ = 1 to 3 do
        Atomically.run handle ~pid (fun txn ->
            let v = Value.to_int_exn (Atomically.read txn acc_a) in
            Atomically.write txn acc_a (Value.int (v + amount));
            Atomically.Done ())
      done
    in
    [ (1, deposit 1 10); (2, deposit 2 100);
      (3,
       fun () ->
         balance :=
           Some
             (Atomically.run handle ~pid:3 (fun txn ->
                  Atomically.Done (Atomically.read txn acc_a)))) ]
  in
  let atoms =
    List.concat
      (List.init 50 (fun _ -> [ Schedule.Steps (1, 3); Schedule.Steps (2, 4) ]))
    @ [ Schedule.Until_done 1; Schedule.Until_done 2; Schedule.Until_done 3 ]
  in
  ignore (Sim.replay ~budget:20_000 setup atoms);
  Format.printf
    "@.Dynamic API: 3 deposits of 10 and 3 of 100, racing with retries — \
     final balance %a (no update lost).@."
    Fmt.(option Value.pp_compact)
    !balance

(* Empirical liveness classification.

   Liveness conditions quantify over all executions, so code can refute
   but never prove them; the classifier runs a battery of adversarial
   probes and reports the strongest class consistent with what it
   observed, together with the witness for every exclusion:

     Blocking          — some probe could not finish solo (stall), or a
                         solo run aborted without step contention;
     Obstruction_free  — solo progress always, but a mutual-abort livelock
                         was witnessed under an alternating schedule;
     Lock_free         — no livelock found, but single transactions can
                         abort under contention (no individual bound);
     Wait_free         — no aborts and no stalls under any probe.

   The classical placements come out: pram-local and si-clock are
   wait-free (si-clock's commits never fail and its install retries are
   contention-bounded), dstm obstruction-free only (the textbook
   mutual-abort livelock is found and replayed), candidate and
   llsc-candidate lock-free, tl-lock / tl2-clock / norec blocking. *)

open Tm_base
open Tm_runtime
open Tm_impl

let cls_to_string = function
  | Tm_intf.Wait_free -> "wait-free"
  | Tm_intf.Lock_free -> "lock-free"
  | Tm_intf.Obstruction_free -> "obstruction-free"
  | Tm_intf.Blocking -> "blocking"

type report = { cls : Tm_intf.liveness; evidence : string }

let x_item = Item.v "x"
let y_item = Item.v "y"

(* --------------------------------------------------------------- *)
(* Probe 1: solo progress against a suspended conflicting enemy.
   A stall refutes everything non-blocking; a solo abort refutes
   obstruction-freedom (and we fold it into Blocking as well, since the
   TM cannot guarantee solo commit). *)

let suspended_enemy : Solo_probe.entry =
  {
    specs =
      [
        { Static_txn.tid = Tid.v 11; pid = 11; reads = [ x_item ];
          writes = [ (x_item, Value.int 1) ] };
        { Static_txn.tid = Tid.v 12; pid = 12; reads = [];
          writes = [ (x_item, Value.int 2); (y_item, Value.int 2) ] };
      ];
    prefix = [];
    enemy = 12;
    probe = 11;
    budget = 1_000;
  }

type solo_result = Solo_ok | Stalls of int | Solo_abort of int

let solo_progress impl : solo_result =
  match
    Solo_probe.(first_failure (points (scan impl suspended_enemy)))
  with
  | None -> Solo_ok
  | Some { Solo_probe.k; outcome = Solo_probe.Abort; _ } -> Solo_abort k
  | Some { Solo_probe.k; _ } -> Stalls k

(* --------------------------------------------------------------- *)
(* Probe 2: mutual-abort livelock under alternating schedules.  Two
   conflicting retry-forever clients are advanced [k] steps each in strict
   alternation; if neither ever commits over many rounds for some phase
   [k], a livelock is witnessed. *)

let retry_client (handle : Txn_api.handle) ~pid () =
  let rec attempt n =
    let tid = Tid.v ((pid * 1000) + n) in
    let txn = handle.Txn_api.begin_txn ~pid ~tid in
    let result =
      match Txn_api.read txn x_item with
      | Error () -> Error ()
      | Ok v -> (
          let v' =
            Value.int (Option.value ~default:0 (Value.to_int v) + 1)
          in
          match Txn_api.write txn x_item v' with
          | Error () -> Error ()
          | Ok () -> Txn_api.try_commit txn)
    in
    match result with Ok () -> () | Error () -> attempt (n + 1)
  in
  attempt 0

let livelock_setup impl : Sim.setup =
 fun mem recorder ->
  let handle =
    Txn_api.instantiate impl mem recorder ~items:[ x_item; y_item ]
  in
  [ (1, retry_client handle ~pid:1); (2, retry_client handle ~pid:2) ]

(* The adaptive commit-avoiding adversary (see the interface).  The path
   lives in one cursor: a try steps it in place, with an O(1) fork taken
   first as its undo, and a rejected try resumes from the fork, which
   rebuilds its world with one replay.  A client ends exactly when it
   commits, so "the step committed nobody" is "the stepped client has not
   finished". *)
let find_livelock ?(horizon = 300) impl : int option =
  let rec go cur n last =
    if n >= horizon then begin
      Sim.release cur;
      Some n
    end
    else
      (* prefer alternation so both clients keep taking steps *)
      let order = if last = 1 then [ 2; 1 ] else [ 1; 2 ] in
      let rec try_pids cur = function
        | [] -> None
        | pid :: rest ->
            let back = Sim.fork cur in
            ignore (Sim.step cur pid);
            if not (Sim.finished cur pid) then go cur (n + 1) pid
            else begin
              (* a rejected try: its world is dropped *)
              Sim.release cur;
              try_pids back rest
            end
      in
      try_pids cur order
  in
  go (Sim.start ~budget:10_000 (livelock_setup impl)) 0 2

(* --------------------------------------------------------------- *)
(* Probe 3: individual progress under fair contention.  Run the two
   retry-forever clients round-robin; wait-freedom is refuted by any
   abort (some transaction needed unboundedly many attempts under an
   adversarial extension of the same pattern). *)

let contend impl client1 client2 : Tm_trace.History.t =
  let mem = Memory.create () in
  let recorder = Tm_trace.Recorder.create () in
  let handle =
    Txn_api.instantiate impl mem recorder ~items:[ x_item; y_item ]
  in
  let sched = Scheduler.create mem in
  Scheduler.spawn sched ~pid:1 (client1 handle ~pid:1);
  Scheduler.spawn sched ~pid:2 (client2 handle ~pid:2);
  let steps = ref 0 in
  while
    !steps < 5_000
    && not (Scheduler.finished sched 1 && Scheduler.finished sched 2)
  do
    List.iter
      (fun pid ->
        if not (Scheduler.finished sched pid) then begin
          ignore (Scheduler.step sched pid);
          incr steps
        end)
      [ 1; 2 ]
  done;
  Scheduler.release sched;
  Tm_trace.Recorder.history recorder

let aborts_under_contention impl : int =
  let h = contend impl retry_client retry_client in
  List.length
    (List.filter (Tm_trace.History.aborted h) (Tm_trace.History.txns h))

(* --------------------------------------------------------------- *)

let classify_inner (impl : Tm_intf.impl) : report =
  match solo_progress impl with
  | Stalls k ->
      {
        cls = Tm_intf.Blocking;
        evidence =
          Printf.sprintf
            "a conflicting transaction stalls solo when the enemy is \
             suspended after %d steps"
            k;
      }
  | Solo_abort k ->
      {
        cls = Tm_intf.Blocking;
        evidence =
          Printf.sprintf
            "a transaction running solo aborts (enemy suspended after %d \
             steps): solo commit is not guaranteed"
            k;
      }
  | Solo_ok -> (
      match find_livelock impl with
      | Some n ->
          {
            cls = Tm_intf.Obstruction_free;
            evidence =
              Printf.sprintf
                "the commit-avoiding adversary kept both clients stepping \
                 for %d steps with zero commits (mutual-abort livelock)"
                n;
          }
      | None ->
          let aborts = aborts_under_contention impl in
          if aborts = 0 then
            {
              cls = Tm_intf.Wait_free;
              evidence =
                "no stalls, no livelock, and no aborts under any probe";
            }
          else
            {
              cls = Tm_intf.Lock_free;
              evidence =
                Printf.sprintf
                  "no livelock found, but %d aborts under fair contention \
                   (individual progress is not bounded)"
                  aborts;
            })

let classify (impl : Tm_intf.impl) : report =
  let (module M : Tm_intf.S) = impl in
  let r =
    Tm_obs.Sink.span
      ~labels:[ ("tm", M.name) ]
      "probe.liveness_classify"
      (fun () -> classify_inner impl)
  in
  Tm_obs.Sink.incr
    ~labels:[ ("tm", M.name); ("cls", cls_to_string r.cls) ]
    "probe_liveness_class_total";
  r

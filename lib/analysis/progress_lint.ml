(* The progress-guarantee passes [Kuznetsov & Ravi, "Progressive
   Transactional Memory in Time and Space"; "On Partial Wait-Freedom in
   Transactional Memory"].

   Two detectors, one per paper:

   - progressiveness — trace-level.  A progressive TM may forcibly abort
     a transaction only over a read-write conflict with a concurrent
     transaction, and must commit every transaction that runs without
     step contention.  Arm (1) walks the history: for every TM-forced
     abort it searches for an attribution — a concurrent transaction
     whose (invoked or effective) data set intersects the victim's on an
     item at least one of the two writes.  No attribution means the TM
     invented the conflict.  Arm (2) re-reads the access log for the
     complementary obligation: a transaction running step-contention-free
     past the horizon without completing (a spinning commit is just as
     much a progressiveness violation as an unattributable abort).

   - pwf (partial wait-freedom) — probe-driven, like figure-consistency:
     the input only names a TM, which is then replayed against scripted
     branch scans.  Probe (a) suspends a conflicting writer at every
     depth of its solo run and requires the read-only transaction to
     commit solo — a TM that forcibly aborts an uncontended read-only
     transaction, aborts it over a passive suspended writer, or stalls
     it, is not partially wait-free.  Probe (b) runs reader vs updater
     under fair round-robin contention: any read-only abort refutes the
     wait-freedom of readers.  The per-role classification (read-only
     vs updating transactions, each wait-free / lock-free /
     obstruction-free / blocking) is emitted as an always-expected Info
     finding; the updater side is the liveness class the TM declares in
     its contract (the test suite checks that declaration against the
     {!Tm_probe.Liveness_class} adversaries, so a lint run does not
     re-run them). *)

open Tm_base
open Tm_trace
open Tm_impl
open Lint

(* ------------------------------------------------------------------ *)
(* progressiveness *)

(* write-intent items of [tid]: invoked writes (even those answered with
   A_T) plus the history's effective write set *)
let write_intent (h : History.t) tid : Item.Set.t =
  List.fold_left
    (fun acc ev ->
      match ev with
      | Event.Inv { op = Event.Write (x, _); _ } -> Item.Set.add x acc
      | _ -> acc)
    (History.write_set h tid) (History.per_txn h tid)

(* was the abort requested by the client's own abort_T call? *)
let client_aborted (h : History.t) tid =
  List.exists
    (function Event.Inv { op = Event.Abort_call; _ } -> true | _ -> false)
    (History.per_txn h tid)

let abort_stamp (h : History.t) tid =
  List.fold_left
    (fun acc ev ->
      match ev with
      | Event.Resp { resp = Event.R_aborted; at; _ } -> Some at
      | _ -> acc)
    None (History.per_txn h tid)

let progressiveness_run (cfg : config) (i : input) : finding list =
  let h = i.history in
  let data_of = Tm_dap.Conflict.data_set (effective_data_sets i) in
  (* arm 1: every TM-forced abort needs a conflicting concurrent txn *)
  let unattributed =
    List.filter_map
      (fun tid ->
        if not (History.aborted h tid) || client_aborted h tid then None
        else begin
          let mine = data_of tid and my_writes = write_intent h tid in
          let attribution =
            List.find_opt
              (fun other ->
                (not (Tid.equal other tid))
                && History.concurrent h tid other
                &&
                let shared = Item.Set.inter mine (data_of other) in
                (not (Item.Set.is_empty shared))
                && not
                     (Item.Set.is_empty
                        (Item.Set.inter shared
                           (Item.Set.union my_writes
                              (write_intent h other)))))
              (History.txns h)
          in
          match attribution with
          | Some _ -> None
          | None ->
              let interval =
                match History.positions_of_txn h tid with
                | Some (f, l) ->
                    [ Event.at (History.get h f); Event.at (History.get h l) ]
                | None -> []
              in
              Some
                {
                  pass = "progressiveness";
                  severity = Error;
                  step = abort_stamp h tid;
                  txns = [ tid ];
                  oids = [];
                  witness_steps = interval;
                  message =
                    Printf.sprintf
                      "%s was forcibly aborted with no read-write conflict \
                       against any concurrent transaction: a progressive TM \
                       may abort only over such a conflict"
                      (Tid.name tid);
                }
        end)
      (History.txns h)
  in
  (* arm 2: a step-contention-free run past the horizon without
     completing — the commit obligation of progressiveness *)
  let stalls =
    Passes.solo_stalls ~horizon:cfg.horizon i (fun t ~since ~len ~at ->
        {
          pass = "progressiveness";
          severity = Error;
          step = Some at;
          txns = [ t ];
          oids = [];
          witness_steps = [ since; at ];
          message =
            Printf.sprintf
              "%s has run %d steps step-contention-free (since step %d) \
               without committing: a progressive TM must commit every \
               step-contention-free transaction (horizon %d)"
              (Tid.name t) len since cfg.horizon;
        })
  in
  cap cfg (unattributed @ stalls)

let progressiveness : pass =
  {
    name = "progressiveness";
    describe =
      "a forced abort with no read-write conflict against a concurrent \
       transaction, or a step-contention-free run past the horizon \
       without committing";
    paper = "Kuznetsov-Ravi, Progressive TM in Time and Space";
    run = progressiveness_run;
  }

(* ------------------------------------------------------------------ *)
(* pwf: the partial-wait-freedom probes *)

let x_item = Item.v "x"
let y_item = Item.v "y"

type reader_outcome =
  | Reader_wait_free
  | Reader_aborts of int  (** suspension depth of the passive writer *)
  | Reader_stalls of int

(* probe (a): branch scan over writer suspension depths.  The writer
   (writes x and y) is paused after its k-th solo step for every k, and
   the read-only transaction (reads x then y) must then commit running
   solo.  k = 0 is the fully uncontended case. *)
let reader_probe (cfg : config) : Tm_probe.Solo_probe.entry =
  {
    specs =
      [
        { Static_txn.tid = Tid.v 21; pid = 21; reads = [];
          writes = [ (x_item, Value.int 7); (y_item, Value.int 7) ] };
        { Static_txn.tid = Tid.v 23; pid = 23; reads = [ x_item; y_item ];
          writes = [] };
      ];
    prefix = [];
    enemy = 21;
    probe = 23;
    budget = 3 * cfg.horizon;
  }

let reader_scan (cfg : config) impl : reader_outcome =
  match
    Tm_probe.Solo_probe.(first_failure (points (scan impl (reader_probe cfg))))
  with
  | None -> Reader_wait_free
  | Some { k; outcome = Abort; _ } -> Reader_aborts k
  | Some { k; _ } -> Reader_stalls k

(* probe (b): reader vs updater under fair round-robin contention; count
   the read-only aborts.  Bounded and deterministic: each client stops
   after 20 commits.  [ops txn n] is attempt [n]'s operations before its
   commit. *)
let bounded_client ops (handle : Txn_api.handle) ~pid () =
  let rec attempt n committed =
    if committed < 20 then begin
      let txn = handle.Txn_api.begin_txn ~pid ~tid:(Tid.v ((pid * 1000) + n)) in
      let ok =
        match ops txn n with
        | Ok () -> Result.is_ok (Txn_api.try_commit txn)
        | Error () -> false
      in
      attempt (n + 1) (if ok then committed + 1 else committed)
    end
  in
  attempt 0 0

let reader_client =
  bounded_client (fun txn _ ->
      Result.bind (Txn_api.read txn x_item) (fun _ ->
          Result.map ignore (Txn_api.read txn y_item)))

let updater_client =
  bounded_client (fun txn n ->
      Result.bind (Txn_api.write txn x_item (Value.int n)) (fun () ->
          Txn_api.write txn y_item (Value.int n)))

let reader_aborts_under_contention impl : int =
  let h = Tm_probe.Liveness_class.contend impl reader_client updater_client in
  List.length
    (List.filter
       (fun t -> Tid.to_int t < 2000 && History.aborted h t)
       (History.txns h))

let finding ?step ?(txns = []) ?(witness = []) ~severity message =
  {
    pass = "pwf";
    severity;
    step;
    txns;
    oids = [];
    witness_steps = witness;
    message;
  }

let check (cfg : config) (impl : Tm_intf.impl) : finding list =
  let module M = (val impl : Tm_intf.S) in
  let scan = reader_scan cfg impl in
  let scan_findings =
    match scan with
    | Reader_wait_free -> []
    | Reader_aborts 0 ->
        [
          finding ~severity:Error ~step:0 ~txns:[ Tid.v 23 ] ~witness:[ 0 ]
            (Printf.sprintf
               "%s forcibly aborts an uncontended read-only transaction: \
                partial wait-freedom requires invisible read-only \
                transactions to commit"
               M.name);
        ]
    | Reader_aborts k ->
        [
          finding ~severity:Error ~step:k ~txns:[ Tid.v 23 ] ~witness:[ k ]
            (Printf.sprintf
               "a read-only transaction aborts although the conflicting \
                writer is suspended after step %d and takes no further \
                steps: read-only transactions are not wait-free on %s"
               k M.name);
        ]
    | Reader_stalls k ->
        [
          finding ~severity:Error ~step:k ~txns:[ Tid.v 23 ] ~witness:[ k ]
            (Printf.sprintf
               "a read-only transaction cannot complete solo while the \
                conflicting writer is suspended after step %d (ran %d \
                steps): read-only transactions block on %s"
               k (3 * cfg.horizon) M.name);
        ]
  in
  let contention_aborts = reader_aborts_under_contention impl in
  let contention_findings =
    if contention_aborts = 0 || scan <> Reader_wait_free then []
      (* when the branch scan already refuted reader wait-freedom, the
         contention count is the same defect observed twice *)
    else
      [
        finding ~severity:Error ~txns:[]
          (Printf.sprintf
             "read-only transactions aborted %d time(s) under fair \
              round-robin contention with an updater: reads are visible \
              or revocable, so readers are not wait-free on %s"
             contention_aborts M.name);
      ]
  in
  let readers_class =
    match scan with
    | Reader_wait_free when contention_aborts = 0 -> "wait-free"
    | Reader_wait_free ->
        Printf.sprintf "aborting under contention (%d aborts)"
          contention_aborts
    | Reader_aborts k -> Printf.sprintf "aborting (writer paused at %d)" k
    | Reader_stalls k -> Printf.sprintf "blocking (writer paused at %d)" k
  in
  [
    finding ~severity:Info
      (Printf.sprintf
         "partial-wait-freedom classification for %s: read-only %s, \
          updaters %s"
         M.name readers_class
         (Tm_probe.Liveness_class.cls_to_string M.contract.Tm_intf.liveness));
  ]
  @ scan_findings @ contention_findings

let pwf_run (cfg : config) (i : input) : finding list =
  match i.tm with
  | None -> []
  | Some name -> (
      match Registry.find name with
      | None -> []
      | Some impl -> check cfg impl)

let pwf : pass =
  {
    name = "pwf";
    describe =
      "read-only transactions that abort or stall uncontended, under a \
       suspended writer, or under fair contention — with a per-role \
       wait-free / lock-free / obstruction-free / blocking classification";
    paper = "Kuznetsov-Ravi, On Partial Wait-Freedom in TM";
    run = pwf_run;
  }

let passes = [ progressiveness; pwf ]

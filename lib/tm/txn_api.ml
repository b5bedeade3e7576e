(* The client-facing API: a TM instance packaged as closures, with every
   transactional routine recorded as invocation/response events in a
   history (the paper's H_alpha).  This is the single place where histories
   are produced, so every TM is instrumented identically. *)

open Tm_base
open Tm_trace

type txn = {
  tid : Tid.t;
  pid : int;
  read : Item.t -> (Value.t, unit) result;
  write : Item.t -> Value.t -> (unit, unit) result;
  try_commit : unit -> (unit, unit) result;
  abort : unit -> unit;
}

type handle = {
  tm_name : string;
  begin_txn : pid:int -> tid:Tid.t -> txn;
  fresh_tid : unit -> Tid.t;
      (** unique transaction ids for retry loops; deterministic per handle
          (and therefore per replay) *)
}

(* Per-TM telemetry handles, resolved once per process by the TM's first
   [instantiate].  That registers every cell, at zero until it counts.
   [c_prim] is the per-kind array the memory bumps at every step,
   attributing base-object traffic to the TM. *)
type counters = {
  c_begin : Tm_obs.Metrics.counter;
  c_read : Tm_obs.Metrics.counter;
  c_write : Tm_obs.Metrics.counter;
  c_commit : Tm_obs.Metrics.counter;
  c_abort : Tm_obs.Metrics.counter;
  c_retry : Tm_obs.Metrics.counter;
  c_poison : Tm_obs.Metrics.counter;
  c_prim : Tm_obs.Metrics.counter array;
}

let counters_of_tm : (string, counters) Hashtbl.t = Hashtbl.create 16

let counters tm =
  match Hashtbl.find_opt counters_of_tm tm with
  | Some c -> c
  | None ->
      let metrics = Tm_obs.Sink.metrics Tm_obs.Sink.default in
      let tm_l = [ ("tm", tm) ] in
      let c_of name = Tm_obs.Metrics.counter metrics ~labels:tm_l name in
      let c_prim =
        Array.init Primitive.n_kinds (fun i ->
            Tm_obs.Metrics.counter metrics
              ~labels:(("prim", Primitive.kind_names.(i)) :: tm_l)
              "tm_mem_prim_total")
      in
      let c =
        { c_begin = c_of "tm_begin_total"; c_read = c_of "tm_read_total";
          c_write = c_of "tm_write_total"; c_commit = c_of "tm_commit_total";
          c_abort = c_of "tm_abort_total"; c_retry = c_of "tm_retry_total";
          c_poison = c_of "tm_poison_aborts_total"; c_prim }
      in
      Hashtbl.add counters_of_tm tm c;
      c

(** Instantiate a TM implementation over [mem], recording all events into
    [recorder].  The event timestamps are the global step counts, placing
    history events on the same axis as access-log steps. *)
let instantiate (module M : Tm_intf.S) (mem : Memory.t)
    (recorder : Recorder.t) ~(items : Item.t list) : handle =
  let t = M.create mem ~items in
  let now () = Memory.step_count mem in
  let tid_counter = ref 0 in
  let fresh_tid () =
    incr tid_counter;
    Tid.v (50_000 + !tid_counter)
  in
  (* telemetry: every TM is instrumented identically here, and the memory
     attributes every base-object step to the TM under test *)
  let { c_begin; c_read; c_write; c_commit; c_abort; c_retry; c_poison; c_prim }
      = counters M.name in
  Memory.count_prims mem c_prim;
  (* a begin on a pid whose previous transaction aborted is a retry (the
     paper's restart model) *)
  let last_aborted : (int, unit) Hashtbl.t = Hashtbl.create 8 in
  let aborted pid =
    Tm_obs.Metrics.inc c_abort;
    Hashtbl.replace last_aborted pid ()
  in
  let begin_txn ~pid ~tid =
    Tm_obs.Metrics.inc c_begin;
    if Hashtbl.mem last_aborted pid then begin
      Tm_obs.Metrics.inc c_retry;
      Hashtbl.remove last_aborted pid
    end;
    Recorder.inv recorder ~tid ~pid ~at:(now ()) Event.Begin;
    let ctx = M.begin_txn t ~pid ~tid in
    Recorder.resp recorder ~tid ~pid ~at:(now ()) Event.Begin Event.R_ok;
    (* doomed-transaction poison (chaos engine): a poisoned process's
       next transactional operation is answered by the TM's own abort
       routine, so the forced abort is indistinguishable — in the
       history and in memory — from one the TM chose itself.  The
       routines form one [let rec] group so they share a single closure
       block per transaction instead of allocating one environment
       each. *)
    let rec take_poison () =
      if Memory.take_poison mem pid then begin
        Tm_obs.Metrics.inc c_poison;
        M.abort ctx;
        true
      end
      else false
    and read x =
      Tm_obs.Metrics.inc c_read;
      Recorder.inv_read recorder ~tid ~pid ~at:(now ()) x;
      if take_poison () then begin
        aborted pid;
        Recorder.resp_read_aborted recorder ~tid ~pid ~at:(now ()) x;
        Error ()
      end
      else
        match M.read ctx x with
        | Ok v as r ->
            Recorder.resp_read_value recorder ~tid ~pid ~at:(now ()) x v;
            r
        | Error () ->
            aborted pid;
            Recorder.resp_read_aborted recorder ~tid ~pid ~at:(now ()) x;
            Error ()
    and write x v =
      Tm_obs.Metrics.inc c_write;
      Recorder.inv_write recorder ~tid ~pid ~at:(now ()) x v;
      if take_poison () then begin
        aborted pid;
        Recorder.resp_write_aborted recorder ~tid ~pid ~at:(now ()) x v;
        Error ()
      end
      else
        match M.write ctx x v with
        | Ok () ->
            Recorder.resp_write_ok recorder ~tid ~pid ~at:(now ()) x v;
            Ok ()
        | Error () ->
            aborted pid;
            Recorder.resp_write_aborted recorder ~tid ~pid ~at:(now ()) x v;
            Error ()
    and try_commit () =
      Recorder.inv recorder ~tid ~pid ~at:(now ()) Event.Try_commit;
      if take_poison () then begin
        aborted pid;
        Recorder.resp recorder ~tid ~pid ~at:(now ()) Event.Try_commit
          Event.R_aborted;
        Error ()
      end
      else
      match M.try_commit ctx with
      | Ok () ->
          Tm_obs.Metrics.inc c_commit;
          Recorder.resp recorder ~tid ~pid ~at:(now ()) Event.Try_commit
            Event.R_committed;
          Ok ()
      | Error () ->
          aborted pid;
          Recorder.resp recorder ~tid ~pid ~at:(now ()) Event.Try_commit
            Event.R_aborted;
          Error ()
    and abort () =
      Recorder.inv recorder ~tid ~pid ~at:(now ()) Event.Abort_call;
      M.abort ctx;
      aborted pid;
      Recorder.resp recorder ~tid ~pid ~at:(now ()) Event.Abort_call
        Event.R_aborted
    in
    { tid; pid; read; write; try_commit; abort }
  in
  { tm_name = M.name; begin_txn; fresh_tid }

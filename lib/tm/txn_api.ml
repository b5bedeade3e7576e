(* The client-facing API: a TM instance over one world, with every
   transactional routine recorded as invocation/response events in a
   history (the paper's H_alpha).  This is the single place where histories
   are produced, so every TM is instrumented identically.

   A transaction is data, not closures: one record per attempt, pointing
   at its world's table, which holds what every attempt shares. *)

open Tm_base
open Tm_trace

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

(* One world's table: the TM's four routines over its context type, and
   what every routine records into. *)
type 'c world = {
  tm_read : 'c -> Item.t -> (Value.t, unit) result;
  tm_write : 'c -> Item.t -> Value.t -> (unit, unit) result;
  tm_try_commit : 'c -> (unit, unit) result;
  tm_abort : 'c -> unit;
  mem : Memory.t;
  recorder : Recorder.t;
  counters : counters;
  last_aborted : (int, unit) Hashtbl.t;
      (* a begin on a pid whose previous transaction aborted is a retry
         (the paper's restart model) *)
}

type txn =
  | Txn : {
      ctx : 'c;
      world : 'c world;
      tid : Tid.t;
      pid : int;
      mutable invocations : int;  (* reads and writes invoked so far *)
    }
      -> txn

type handle = {
  tm_name : string;
  begin_txn : pid:int -> tid:Tid.t -> txn;
  fresh_tid : unit -> Tid.t;
      (** unique transaction ids for retry loops; deterministic per handle
          (and therefore per replay) *)
}

let tid (Txn t) = t.tid
let pid (Txn t) = t.pid
let invocations (Txn t) = t.invocations
let now w = Memory.step_count w.mem

let aborted w pid =
  Tm_obs.Metrics.inc w.counters.c_abort;
  Hashtbl.replace w.last_aborted pid ()

(* doomed-transaction poison (chaos engine): a poisoned process's next
   transactional operation is answered by the TM's own abort routine, so
   the forced abort is indistinguishable — in the history and in memory
   — from one the TM chose itself *)
let take_poison w ctx pid =
  if Memory.take_poison w.mem pid then begin
    Tm_obs.Metrics.inc w.counters.c_poison;
    w.tm_abort ctx;
    true
  end
  else false

let read (Txn t) x =
  let w = t.world and tid = t.tid and pid = t.pid in
  t.invocations <- t.invocations + 1;
  Tm_obs.Metrics.inc w.counters.c_read;
  Recorder.inv_read w.recorder ~tid ~pid ~at:(now w) x;
  if take_poison w t.ctx pid then begin
    aborted w pid;
    Recorder.resp_read_aborted w.recorder ~tid ~pid ~at:(now w) x;
    Error ()
  end
  else
    match w.tm_read t.ctx x with
    | Ok v as r ->
        Recorder.resp_read_value w.recorder ~tid ~pid ~at:(now w) x v;
        r
    | Error () ->
        aborted w pid;
        Recorder.resp_read_aborted w.recorder ~tid ~pid ~at:(now w) x;
        Error ()

let write (Txn t) x v =
  let w = t.world and tid = t.tid and pid = t.pid in
  t.invocations <- t.invocations + 1;
  Tm_obs.Metrics.inc w.counters.c_write;
  Recorder.inv_write w.recorder ~tid ~pid ~at:(now w) x v;
  if take_poison w t.ctx pid then begin
    aborted w pid;
    Recorder.resp_write_aborted w.recorder ~tid ~pid ~at:(now w) x v;
    Error ()
  end
  else
    match w.tm_write t.ctx x v with
    | Ok () ->
        Recorder.resp_write_ok w.recorder ~tid ~pid ~at:(now w) x v;
        Ok ()
    | Error () ->
        aborted w pid;
        Recorder.resp_write_aborted w.recorder ~tid ~pid ~at:(now w) x v;
        Error ()

let try_commit (Txn t) =
  let w = t.world and tid = t.tid and pid = t.pid in
  Recorder.inv w.recorder ~tid ~pid ~at:(now w) Event.Try_commit;
  if take_poison w t.ctx pid then begin
    aborted w pid;
    Recorder.resp w.recorder ~tid ~pid ~at:(now w) Event.Try_commit
      Event.R_aborted;
    Error ()
  end
  else
    match w.tm_try_commit t.ctx with
    | Ok () ->
        Tm_obs.Metrics.inc w.counters.c_commit;
        Recorder.resp w.recorder ~tid ~pid ~at:(now w) Event.Try_commit
          Event.R_committed;
        Ok ()
    | Error () ->
        aborted w pid;
        Recorder.resp w.recorder ~tid ~pid ~at:(now w) Event.Try_commit
          Event.R_aborted;
        Error ()

let abort (Txn t) =
  let w = t.world and tid = t.tid and pid = t.pid in
  Recorder.inv w.recorder ~tid ~pid ~at:(now w) Event.Abort_call;
  w.tm_abort t.ctx;
  aborted w pid;
  Recorder.resp w.recorder ~tid ~pid ~at:(now w) Event.Abort_call
    Event.R_aborted

(** Instantiate a TM implementation over [mem], recording all events into
    [recorder].  The event timestamps are the global step counts, placing
    history events on the same axis as access-log steps. *)
let instantiate (module M : Tm_intf.S) (mem : Memory.t)
    (recorder : Recorder.t) ~(items : Item.t list) : handle =
  let t = M.create mem ~items in
  let tid_counter = ref 0 in
  let fresh_tid () =
    incr tid_counter;
    Tid.v (50_000 + !tid_counter)
  in
  (* telemetry: every TM is instrumented identically here, and the memory
     attributes every base-object step to the TM under test *)
  let counters = counters M.name in
  Memory.count_prims mem counters.c_prim;
  let world =
    { tm_read = M.read; tm_write = M.write; tm_try_commit = M.try_commit;
      tm_abort = M.abort; mem; recorder; counters;
      last_aborted = Hashtbl.create 8 }
  in
  let begin_txn ~pid ~tid =
    Tm_obs.Metrics.inc counters.c_begin;
    if Hashtbl.mem world.last_aborted pid then begin
      Tm_obs.Metrics.inc counters.c_retry;
      Hashtbl.remove world.last_aborted pid
    end;
    Recorder.inv recorder ~tid ~pid ~at:(now world) Event.Begin;
    let ctx = M.begin_txn t ~pid ~tid in
    Recorder.resp recorder ~tid ~pid ~at:(now world) Event.Begin Event.R_ok;
    Txn { ctx; world; tid; pid; invocations = 0 }
  in
  { tm_name = M.name; begin_txn; fresh_tid }

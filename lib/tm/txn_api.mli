(** The client-facing API: a TM instance over one world, with every
    transactional routine recorded as invocation/response events — the
    single place histories are produced, so every TM is instrumented
    identically. *)

open Tm_base
open Tm_trace

type txn
(** One transaction attempt, as data: the TM's context for it, its tid
    and pid, the count of reads and writes invoked on it, and a pointer
    to its world's table (the TM's four routines, the memory, the
    recorder, the telemetry counters, and the pids whose last attempt
    aborted), which {!instantiate} builds once.  Beginning an attempt
    allocates this one 6-word record and no closure.  Beginning it and
    each routine below also allocate what the TM's own routine
    allocates, two history events (about four words each, amortized
    over the recorder's column chunks) and, on an abort, the mark that
    makes the pid's next begin a retry. *)

val read : txn -> Item.t -> (Value.t, unit) result
val write : txn -> Item.t -> Value.t -> (unit, unit) result
val try_commit : txn -> (unit, unit) result
val abort : txn -> unit
val tid : txn -> Tid.t
val pid : txn -> int

val invocations : txn -> int
(** The reads and writes invoked on this attempt so far, answered or
    aborted: the work the karma contention manager weighs. *)

type handle = {
  tm_name : string;
  begin_txn : pid:int -> tid:Tid.t -> txn;
  fresh_tid : unit -> Tid.t;
      (** unique transaction ids for retry loops; deterministic per handle
          (and therefore per replay) *)
}

val instantiate :
  Tm_intf.impl -> Memory.t -> Recorder.t -> items:Item.t list -> handle

(** Running the proof's transactions against a TM under scripted
    schedules.  Every execution is replayed from the initial configuration
    C0, so configurations are identified with schedule prefixes. *)

open Tm_base
open Tm_runtime
open Tm_impl

type run = {
  sim : Sim.result;
  outcomes : (Tid.t, Static_txn.outcome) Hashtbl.t;
}

val default_budget : int

val run : Tm_intf.impl -> Schedule.atom list -> run
(** Replay a schedule from C0 with all seven transactions spawned. *)

val outcome : run -> Tid.t -> Static_txn.outcome option
val committed : run -> Tid.t -> bool

val read_of : run -> Tid.t -> Item.t -> Value.t option
(** The value a transaction read for an item, if it got that far. *)

val stopped_normally : run -> bool

val nth_step_of_pid : run -> int -> int -> Access_log.entry option
(** The n-th step (1-based) taken by a pid in the run; [None] for n < 1. *)

val step_signature : run -> int -> (Oid.t * Primitive.t * Value.t) list
(** A pid's steps as (object, primitive, response) triples — the
    indistinguishability comparison. *)

val objects_read_by : run -> int -> Oid.Set.t
val nontrivial_on : run -> int -> Oid.t -> bool

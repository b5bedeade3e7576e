(** Synchronization-cost metering over access logs: the price a TM pays
    for its corner of the PCL triangle, in the cost model of the TM
    lower-bound literature — RMRs (cache-coherent model), RMW-class
    steps, read-after-remote-write patterns, protected-data footprint vs
    data set, capacity/time per transaction, and wasted work split by
    abort cause.  A pure fold over the log: identical logs yield
    identical costs. *)

open Tm_base

val rmw_class : Primitive.t -> bool
(** cas / fetch-and-add / trylock / store-conditional — the atomic
    read-modify-write class. *)

type txn_cost = {
  tid : Tid.t;
  steps : int;
  rmrs : int;
  rmw_steps : int;
  read_after_remote_write : int;
  footprint : int;  (** objects accessed with a non-trivial primitive *)
  capacity : int;  (** distinct base objects accessed *)
  data_items : int;  (** |read set ∪ write set|; 0 without a history *)
  committed : bool;
  aborted : bool;
  contended : bool;
}

type t = {
  steps : int;
  rmrs : int;
  rmw_steps : int;
  read_after_remote_write : int;
  footprint_max : int;
  capacity_max : int;
  commits : int;
  aborts : int;
  wasted_steps : int;
  wasted_contended : int;
  wasted_uncontended : int;
  txns : txn_cost list;  (** sorted by tid; [] in merged aggregates *)
}

val zero : t

val merge : t -> t -> t
(** Pointwise sum (max for the highwater marks); drops per-txn rows. *)

val analyse : ?history:Tm_trace.History.t -> Access_log.window -> t
(** Derive the cost of one execution.  The history, when given, supplies
    commit/abort status and data-set sizes; contention comes from the
    steps themselves (Section-3 contention on base objects). *)

val register : ?labels:Tm_obs.Metrics.labels -> t -> unit
(** Fold the cost into {!Tm_obs.Sink.default}: [cost_*_total] counters
    and [cost_txn_*] histograms, all carrying [labels]. *)

val pp_txn : Format.formatter -> txn_cost -> unit

(** The standard explore workload: a conflicting writer/reader pair —
    T1 reads x then writes x and y, T2 reads x and y — whose bounded
    interleaving space is the repo's stock exploration benchmark.
    `pcl_tm explore`, the benchmark's explore workload, the
    engine-equivalence tests and the CI smoke job all sweep it through
    this module, so they are guaranteed to be measuring the same
    search. *)

open Tm_base
open Tm_runtime
open Tm_impl

val specs : Static_txn.spec list
val pids : int list
val data_sets : (Tid.t * Item.Set.t) list

val setup : Tm_intf.impl -> Sim.setup
(** The world: the pair instantiated on [impl].  Each call makes a fresh
    outcome table, shared across the replays of one search. *)

module Unstamped : Hashtbl.S with type key = Tm_trace.History.t
(** Tables keyed by a history compared without its events' step stamps
    ([at]): two keys are equal iff their events agree, in order, on tid,
    pid, operation and response.  No consistency checker reads a stamp,
    so equal keys get equal verdicts; {!run} keys its judging memo on
    this. *)

val run :
  ?max_steps:int ->
  ?max_nodes:int ->
  ?max_executions:int ->
  ?por:bool ->
  ?on_execution:(strongest:string -> Sim.result -> unit) ->
  Tm_intf.impl ->
  (string * int) list * Explorer.stats
(** Sweep the workload's interleavings on one TM, classifying every
    complete execution by the strongest consistency condition it
    satisfies ("none" if it satisfies nothing).  Returns (condition,
    executions) rows sorted by name, plus the search statistics.  Each
    distinct history ({!Unstamped}) is judged by
    [Checkers.satisfied] once per call; [on_execution] still sees every
    execution with its classification.  Bounds
    default to the stock sweep's: max_steps 80, max_nodes 300_000;
    [por] defaults to off (the naive search). *)

val row_json :
  tm:string ->
  seed:int ->
  (string * int) list * Explorer.stats ->
  Tm_obs.Obs_json.t
(** The sweep of [tm] as one `pcl_tm explore --json` row: executions,
    nodes, sleep_pruned, replays, truncated and the profile rows. *)

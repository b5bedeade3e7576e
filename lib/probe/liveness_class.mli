(** Empirical liveness classification.

    Liveness conditions quantify over all executions, so code can refute
    but never prove them; the classifier runs a battery of adversarial
    probes and reports the strongest class consistent with what it
    observed, with a witness for every exclusion.  The classical
    placements come out: pram-local wait-free, si-clock wait-free (no
    aborts; install retries are contention-bounded), candidate
    lock-free, dstm obstruction-free only (the textbook mutual-abort
    livelock is found by an adaptive commit-avoiding adversary), tl-lock /
    tl2-clock / norec blocking. *)

open Tm_impl

val cls_to_string : Tm_intf.liveness -> string

type report = { cls : Tm_intf.liveness; evidence : string }
(** The strongest class the probes allow, and the witness of every
    exclusion.  A TM declares its class in its [contract]; the test
    suite requires the two to agree. *)

val suspended_enemy : Solo_probe.entry
(** Probe 1: T12 (writes x, y) against T11 (reads and writes x), read by
    verdict's L leg too. *)

type solo_result = Solo_ok | Stalls of int | Solo_abort of int

val solo_progress : Tm_intf.impl -> solo_result
(** Probe 1: can a conflicting transaction always commit solo while an
    enemy is suspended at any point of its run?  [Stalls k] / [Solo_abort
    k] name the first point that refutes it. *)

val find_livelock : ?horizon:int -> Tm_intf.impl -> int option
(** Probe 2: the adaptive commit-avoiding adversary.  At every decision
    point it steps a process only if that step commits nobody; surviving
    [horizon] steps with zero commits witnesses a mutual-abort livelock.
    The path is one live {!Tm_runtime.Sim.cursor}: each try steps it in
    place with an O(1) {!Tm_runtime.Sim.fork} taken first as its undo, so
    only a rejected try pays a replay.  This separates DSTM-style designs (aborting an enemy
    commits nobody) from invalidation-by-commit designs (the candidate
    TM), where every available step eventually commits someone. *)

val contend :
  Tm_intf.impl ->
  (Txn_api.handle -> pid:int -> unit -> unit) ->
  (Txn_api.handle -> pid:int -> unit -> unit) ->
  Tm_trace.History.t
(** Two clients over the items x and y as pids 1 and 2, stepped
    round-robin until both finish or 5,000 steps are taken; the history
    they recorded. *)

val classify : Tm_intf.impl -> report

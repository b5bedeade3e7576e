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

open Tm_base
open Tm_runtime
open Tm_impl

type cls = Wait_free | Lock_free | Obstruction_free | Blocking

val cls_to_string : cls -> string
val pp_cls : Format.formatter -> cls -> unit

type report = { cls : cls; evidence : string }

type solo_result = Solo_ok | Stalls of int | Solo_abort of int

val solo_progress : Tm_intf.impl -> solo_result
(** Probe 1: can a conflicting transaction always finish solo while an
    enemy is suspended at any point of its run?  [Stalls k] / [Solo_abort
    k] name the suspension point that refutes it. *)

val find_livelock : ?horizon:int -> Tm_intf.impl -> int option
(** Probe 2: the adaptive commit-avoiding adversary.  At every decision
    point it steps a process only if that step commits nobody; surviving
    [horizon] steps with zero commits witnesses a mutual-abort livelock.
    The path is one live {!Sim.cursor}: each try steps it in place with
    an O(1) {!Sim.fork} taken first as its undo, so only a rejected try
    pays a replay.  This separates DSTM-style designs (aborting an enemy
    commits nobody) from invalidation-by-commit designs (the candidate
    TM), where every available step eventually commits someone. *)

val aborts_under_contention : Tm_intf.impl -> int
(** Probe 3: aborts observed under fair round-robin contention with
    retry-forever clients — any abort refutes wait-freedom. *)

(** {1 Probe parts shared with [Progress_lint]} *)

val x_item : Item.t
val y_item : Item.t

val spec :
  int -> int -> Item.t list -> (Item.t * int) list -> Static_txn.spec
(** [spec tid pid reads writes]: a static transaction. *)

val static_setup :
  Tm_intf.impl ->
  Static_txn.spec list ->
  (Tid.t, Static_txn.outcome) Hashtbl.t ->
  Sim.setup
(** Each spec as its own process, writing its outcome into the table. *)

val contend :
  Tm_intf.impl ->
  (Txn_api.handle -> pid:int -> unit -> unit) ->
  (Txn_api.handle -> pid:int -> unit -> unit) ->
  Tm_trace.History.t
(** Two clients over [x_item] and [y_item] as pids 1 and 2, stepped
    round-robin until both finish or 5,000 steps are taken; the history
    they recorded. *)

val classify : Tm_intf.impl -> report

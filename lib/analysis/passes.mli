(** The built-in trace-level lint passes.

    Each pass runs over one execution ({!Lint.input}) and flags the first
    offending step with a provenance-style witness.  Paper references are
    on the pass records; the model behind the race pass is documented in
    {!Hb}. *)

open Tm_base

val race : Lint.pass
(** Base-object race: two happens-before-unordered accesses to the same
    base object from different processes, at least one non-trivial —
    flagged at the step where the second access lands. *)

val strict_dap : Lint.pass
(** Per-step strict disjoint-access-parallelism: contention on a base
    object between transactions whose data sets are disjoint (or, with
    [`Path] connectivity, conflict-graph-disconnected) — flagged at the
    step where the contending access lands. *)

val of_stall : Lint.pass
(** Obstruction-freedom: a transaction running step-contention-free past
    [config.horizon] consecutive steps without committing or aborting, or
    aborted although no other process stepped during its interval
    (reusing [Tm_dap.Obstruction_freedom.violations]). *)

val solo_stalls :
  horizon:int ->
  Lint.input ->
  (Tid.t -> since:int -> len:int -> at:int -> Lint.finding) ->
  Lint.finding list
(** [solo_stalls ~horizon input stall]: one finding per transaction that
    never completes and runs more than [horizon] consecutive steps with no
    step of another process in between, built by [stall t ~since ~len ~at]
    at the step [at] that exceeds the horizon ([since]: the run's first
    step, global indices).  Shared by of-stall and progressiveness. *)

val lost_update : Lint.pass
(** Two concurrent committed read-modify-writes of one item that both
    read the same pre-state. *)

val write_skew : Lint.pass
(** Concurrent committed transactions with disjoint writes, each guarded
    by a read of the other's written item in its pre-state. *)

val torn_snapshot : Lint.pass
(** A reader observing one item from a committed writer and another item
    from strictly before that writer — half of an atomic write set. *)

val trace_passes : Lint.pass list
(** All of the above, in severity-then-name order — the passes that can
    run on any recorded trace (the figure-consistency pass, which needs a
    live TM, lives in {!Figure_lint}). *)

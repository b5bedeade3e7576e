(** The incremental execution engine.

    Determinism identifies an execution with its schedule from C0, and a
    {!cursor} exploits the identification both ways: forwards it is a
    live world (memory, recorder, scheduler, schedule session) advancing
    one atom at a time with no prefix re-execution; backwards, {!fork}
    is O(1) — the fork shares the executed path as a prefix of its
    parent's buffer and re-materializes a live world lazily, by replaying
    that prefix, only if it is ever queried or advanced.  (OCaml effects
    give one-shot continuations, so the live world itself can never be
    duplicated; lazy replay is what makes forking sound.)  {!replay} — the original API — is start + feed the
    whole schedule + snapshot, unchanged in behavior. *)

open Tm_base
open Tm_trace

type setup = Memory.t -> Recorder.t -> (int * (unit -> unit)) list
(** A world under test: given fresh memory and a fresh recorder, set up
    shared state and return the per-process programs to spawn. *)

type result = {
  mem : Memory.t;
      (** the cursor's live memory: [Memory.log mem] is the run's flat
          step log, read by column; a consumer that needs entry records
          builds them with [Access_log.entries] *)
  history : History.t;
  report : Schedule.report;
  finished : int -> bool;
  steps_of : int -> int;  (** steps taken by a pid over the whole run *)
}
(** A cursor's world at {!snapshot} time.  [history] is built then; the
    step log is not copied, so advancing the cursor afterwards extends
    the same memory and log. *)

(** {1 Cursors} *)

type cursor
(** A resumable execution state: the configuration reached by the atoms
    executed so far, advanceable without re-executing them. *)

val start : ?budget:int -> setup -> cursor
(** A live cursor at C0 — memory and recorder created, the installed
    flight recorder attached to the new log, programs spawned, nothing
    stepped.  [budget] (default 100_000) bounds each [Until_done] atom
    fed later and is recorded in snapshot metadata. *)

val fork : cursor -> cursor
(** An O(1) copy at the same configuration.  The fork shares the parent's
    path buffer as a prefix and copies that prefix only when it first
    advances; a live world is rebuilt (one deterministic replay of the
    prefix, counted in the ["sim_cursor_replays_total"] counter) the first
    time the fork is queried or advanced.  Forking does not disturb the
    original: both can be advanced independently thereafter, and forks
    of forks share the same way. *)

val step : cursor -> int -> bool
(** [step c pid] advances [pid] by one atomic step; true iff the world
    changed — the process took a memory step, its (empty-bodied) program
    finished on being started, or its program failed on being started,
    which halts the execution.  Each such step extends the path, so a
    replay halts too.  Constant work beyond the step itself: no
    prefix re-execution, no log-length scan.  False leaves the world
    unchanged, its report included: the process had already finished,
    had crashed or is parked, or the execution has halted (a
    genuinely-crashed execution schedules no further steps, exactly as a
    replay of its path would refuse to). *)

val apply : cursor -> Schedule.atom -> Schedule.feed_outcome
(** Feed one schedule atom (quanta, solo segments, fault atoms).
    Executed atoms extend the path a fork replays; post-halt no-ops do
    not. *)

val finished : cursor -> int -> bool
val crashed : cursor -> int -> exn option

val pending : cursor -> int -> Proc.request option
(** The request [pid] will issue at its next step, if its local code has
    already run up to a primitive ({!Scheduler.pending}).  A test seam:
    nothing outside the test suite calls it (the explorer asks
    {!independent}); the fork law compares it between a cursor, a fork
    and the replay of its path. *)

val independent : cursor -> int -> int -> bool
(** [independent c p q]: the next requests of [p] and [q] are both known
    and commute ({!Scheduler.independent}); builds no request. *)

val release : cursor -> unit
(** End the suspended fibers of the cursor's live world, if it has one,
    and drop that world ({!Scheduler.release}); a later query or step
    rebuilds it by replay.  Call it on a cursor whose world is dropped:
    a suspended fiber that is never resumed keeps its stack.  The
    memory, log and history of snapshots taken before stay valid. *)

val steps_taken : cursor -> int
(** Global memory steps executed so far — the constant-time progress
    clock. *)

val on_tick : cursor -> (int -> unit) -> unit
(** Install a live-progress hook on the cursor's schedule session:
    called with the cumulative executed step count after every atom
    that executes at least one step ({!Schedule.set_tick}).  Step
    counts are deterministic, so tick boundaries are too.  Forks
    inherit the hook, but a re-materialization replay does not re-fire
    ticks for its prefix — ticks mark live progress only. *)

val path : cursor -> Schedule.atom list
(** The executed atoms, oldest first: a schedule that replays to exactly
    this configuration. *)

val is_live : cursor -> bool
(** False for a fork that has not yet re-materialized its world. *)

val snapshot : ?flight:bool -> ?schedule:Schedule.atom list -> cursor -> result
(** The cursor's current state as a {!result}.  With [flight] (default
    true) the installed flight recorder's run context is filled exactly
    as {!replay} fills it, so the artifact of a schedule the incremental
    search visited is bit-identical to a from-scratch replay's artifact.
    [schedule] overrides the schedule rendered into the metadata (for
    scripts with an unexecuted tail). *)

(** {1 Whole-schedule replay} *)

val replay : ?budget:int -> setup -> Schedule.atom list -> result
(** Start a cursor, feed it the whole schedule, snapshot it, and
    {!release} its world: the result's processes can no longer move. *)

val solo_length :
  ?budget:int -> setup -> prefix:Schedule.atom list -> int -> int option
(** Number of steps a process needs to run solo to completion after
    replaying [prefix], or [None] if it exceeds the budget. *)

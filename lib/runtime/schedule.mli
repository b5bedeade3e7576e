(** Schedules: the adversary's scripts.  The PCL proof's executions are
    concatenations alpha1 . alpha2 . s1 . alpha3 ... of solo segments and
    single steps; an [atom list] expresses exactly those.  The chaos
    engine's fault atoms (crash-stop, park/unpark, poison) extend the
    alphabet so a faulted run is still one replayable script. *)

open Tm_base

type atom =
  | Steps of int * int  (** [Steps (pid, n)]: at most [n] steps of [pid] *)
  | Until_done of int  (** run [pid] solo until its program finishes *)
  | Crash of int  (** crash-stop [pid]: it takes no further steps, ever *)
  | Park of int  (** suspend [pid]: its quanta are skipped until unparked *)
  | Unpark of int  (** resume a parked [pid] *)
  | Poison of int
      (** doom [pid]'s current transaction: force-abort at its next
          transactional operation *)

type stall = {
  stalled_pid : int;
  last : Access_log.entry option;
      (** the last step the stalled process took, if any — so a stall can
          be attributed to the exact step it wedged on *)
}

type stop =
  | Completed
  | Budget_exhausted of stall
      (** an [Until_done pid] segment hit the step budget — the liveness
          failure signal *)
  | Crashed of int * exn
      (** a genuine exception escaped a process.  Injected crash-stops are
          reported in {!report.crashes} instead and do not stop the
          schedule. *)

type report = {
  stop : stop;
  steps_per_atom : int list;  (** steps actually taken by each atom *)
  crashes : (int * int) list;
      (** injected crash-stops, as (pid, global step at injection) *)
}

val pp_atom : Format.formatter -> atom -> unit
val pp : Format.formatter -> atom list -> unit

val to_string : atom list -> string
(** The compact "p1:7,p2:*" format used by [pcl_tm trace] and by
    flight-recorder artifacts; fault atoms render as "p1:!" (crash),
    "p1:z" (park), "p1:w" (unpark), "p1:~" (poison). *)

val of_string : string -> (atom list, string) result
(** Inverse of {!to_string} (also accepts surrounding whitespace per
    token), so a dumped schedule — faults included — replays
    bit-identically.  A step count must be a non-negative integer: the
    error for ["pN:K"] with [K < 0] names the token. *)

val stop_reason : stop -> string
(** Coarse label ("completed" / "budget-exhausted" / "crashed"). *)

val stop_to_string : stop -> string
(** The stop rendered for run metadata: stalls carry the process and the
    index of its last step ("budget-exhausted:p1@#42", or "@start" if it
    never stepped). *)

val run : Scheduler.t -> ?budget:int -> atom list -> report
(** Execute a schedule.  [budget] (default 100_000) bounds each
    [Until_done] segment.  Parked processes have their quanta skipped;
    injected crash-stops are recorded in [crashes] and the schedule keeps
    running the survivors; a genuine exception stops it with
    {!stop.Crashed}. *)

(** {1 Resumable sessions}

    A session is a schedule interpretation in progress: atoms are fed one
    at a time and the park table / crash list / per-atom step counts
    accumulate, so taking one more step never re-executes the prefix.
    {!run} is [session] + {!feed} over a complete atom list; the
    incremental engine ([Sim]'s cursors, and through it the
    partial-order-reduced explorer) feeds atoms as the search decides
    them. *)

type session

val session : ?budget:int -> Scheduler.t -> session
(** A fresh session over a scheduler whose processes are spawned but not
    yet stepped.  [budget] (default 100_000) bounds each [Until_done]
    segment fed later. *)

type feed_outcome = {
  steps : int;  (** steps the atom actually took *)
  halted : bool;  (** the session is (now) stopped *)
}

val feed : session -> atom -> feed_outcome
(** Execute one atom, exactly as {!run} would in sequence.  A no-op
    (reporting [halted = true], zero steps, nothing counted) once the
    session has stopped — matching how {!run} abandons the tail of its
    atom list. *)

val feed_steps : session -> atom -> int
(** The allocation-free core of {!feed}: same execution, but only the
    step tally is returned — whether the atom halted the session is
    observable via {!session_stopped}.  The per-step engines ([Sim.step],
    replay loops) use this form. *)

val feed_run : session -> int -> int -> unit
(** [feed_run s pid k] leaves the session exactly as [k] {!feed_steps}
    of [Steps (pid, 1)] would — the same step log, one tally per atom,
    the same {!session_steps}, nothing fed after a genuine crash stops
    it — but takes the steps as one scheduler run, so a failed await
    with more of the run left is appended in bulk, and counts the [k]
    tallies in O(1) (a session keeps its tallies as runs of equal
    values; with a {!set_tick} hook installed, the hook still fires per
    atom).  A cursor's re-materialization replays its path's runs of
    single steps this way. *)

val session_stopped : session -> bool

val parked : session -> int -> bool
(** [pid] was parked by a [Park] atom and not unparked since. *)

val set_tick : session -> (int -> unit) -> unit
(** Install the session's progress hook, called with the cumulative
    executed step count ({!session_steps}) after every atom that
    executed at least one step.  Step counts are deterministic, so the
    tick boundaries are too — live observers (watch snapshots, GC
    sampling) key on them to keep their {e structure} reproducible.
    Default: no-op. *)

val session_steps : session -> int
(** Steps executed across all atoms fed so far. *)

val session_report : session -> report
(** The report over everything fed so far — [stop = Completed] while the
    session is still running.  Side-effect free, so it can be
    taken mid-session (the cursor snapshot path does). *)

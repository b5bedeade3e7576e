(** The deterministic step-granularity scheduler.

    Processes are spawned as thunks; the scheduler advances a chosen
    process by exactly one atomic step at a time.  Any execution of the
    paper's model — solo runs, single adversarial steps, arbitrary
    interleavings — is a sequence of {!step} calls, and identical
    sequences produce bit-identical memory states, logs and histories. *)

open Tm_base

exception Injected_crash of { pid : int; step : int }
(** The tag distinguishing a chaos-engine crash-stop from a genuine OCaml
    exception escaping a process.  An injected crash is scripted adversity
    the rest of the system should survive; a real exception is a TM bug a
    chaos run must never mask. *)

val injected : exn -> bool
(** True iff the exception is an {!Injected_crash}. *)

type t

val create : Memory.t -> t
val memory : t -> Memory.t

val spawn : t -> pid:int -> (unit -> unit) -> unit
(** @raise Invalid_argument if [pid] already exists or is negative. *)

type step_result = Stepped | Already_finished | Crashed of exn

val step : t -> int -> step_result
(** Advance one process by one atomic step.  Starting a process runs its
    local code up to and including its first primitive.  The handoff
    allocates only the continuation the process's [perform] captures:
    the request is read from the process's {!Proc.slot}, which the
    scheduler makes current before it starts or resumes the process.
    A process pending on a {!Proc.await_t} takes one attempt: it is
    resumed only if [until] accepts the response, and otherwise stays
    pending on the same request ([Stepped] either way).  An exception
    [until] raises is raised in the process at the await, so it ends as
    that process's crash unless the process handles it.
    @raise Invalid_argument on an unknown pid. *)

val inject_crash : t -> int -> unit
(** Crash-stop a process: it is never scheduled again and its {!crashed}
    exception is an {!Injected_crash} carrying the global step count at
    injection time.  No-op on a finished or already-crashed process.  A
    process stopped while suspended keeps its fiber until {!release}. *)

val release : t -> unit
(** End the fiber of every suspended process, crash-stopped ones
    included, by raising a private exception at its pending step.  Call
    it on a world that will not be advanced again: a fiber that is never
    resumed keeps its stack for good (OCaml frees a fiber's stack only
    when the fiber returns or raises).  Process code catches no exception
    it cannot name, so the unwinding runs none of it: no step is taken
    and no crash is counted, and memory, log and history are untouched.
    Afterwards {!finished} and {!crash_state} answer as before for every
    process except the released pending ones, which read as crashed with
    the private exception; the scheduler must not be stepped again. *)

val live_fibers : unit -> int
(** Test seam: fibers started and not yet ended, over every scheduler of
    the program.  A world dropped without {!release} leaves its suspended
    processes counted here. *)

val finished : t -> int -> bool
val crashed : t -> int -> exn option

type crash_state = No_crash | Injected_stop | Genuine of exn

val crash_state : t -> int -> crash_state
(** Allocation-free form of {!crashed} for per-quantum interrogation: the
    two common answers carry no payload. *)

val pending : t -> int -> Proc.request option
(** The request [pid] will issue at its next step, if its local code has
    already run up to a primitive.  [None] for a never-stepped process
    (its first access is unknown until its prelude runs) and for finished
    or crashed ones.  Stable until [pid] itself is stepped, and across
    the failed attempts of an await.  A test seam: nothing outside the
    test suite calls it ({!independent} is the conflict query a
    partial-order-reduced search asks); the fork and run-feed laws and
    the await tests compare it. *)

val independent : t -> int -> int -> bool
(** [independent t p q]: the requests {!pending} names for [p] and [q]
    are both known and commute — on distinct objects, or both trivial
    ({!Tm_base.Primitive.commute}).  Allocation-free: the conflict query
    of a partial-order-reduced search, asked per sleeping process. *)

val runnable : t -> int -> bool

val run_steps : t -> int -> int -> int
(** [run_steps t pid n] takes at most [n] steps of [pid]; returns how many
    were actually taken (fewer only if the process finished or crashed).
    Equal to [n] calls of {!step}, with one shortcut: once a step is a
    failed await attempt that changed nothing and no fault hook is
    installed, the rest of the [n] steps repeat it exactly, so they are
    appended in bulk ({!Memory.repeat_last}). *)

type solo_result = Done of int | Out_of_budget | Crash of exn

val run_solo : t -> int -> budget:int -> solo_result
(** Run a process solo until it finishes, up to [budget] steps.
    [Out_of_budget] is how a blocking TM's failure to make solo progress
    manifests.  The same shortcut as {!run_steps}: a solo spin no other
    process can end is appended to its budget in bulk. *)

(** The pclsan happens-before engine: one pass over an execution's step
    trace assigns every atomic step a vector clock.

    The synchronizes-with model follows the sanitizer convention for the
    paper's base objects (cf. Kuznetsov & Ravi's per-step stall/footprint
    characterizations): plain [Read]/[Write] primitives are raced data
    accesses and induce no cross-process ordering, while the atomic
    read-modify-write primitives (CAS, fetch&add, try-lock/unlock, LL/SC)
    are synchronization — each such step acquires the clock last released
    on its base object and releases its own, so RMW chains through one
    object are totally ordered.  Program order always holds, and when a
    history is supplied, so does realtime order between non-overlapping
    transactions (a TM may rely on "T' completed before T began", which
    makes serial executions totally ordered and lint-clean).

    Happens-before is then the usual vector-clock order: step [a] precedes
    step [b] iff [a]'s clock is pointwise [<=] [b]'s clock ([a <> b]). *)

open Tm_base
open Tm_trace

type step = {
  pos : int;  (** position in the analysed trace, 0-based and dense *)
  entry : Access_log.entry;
  before : Vclock.t;  (** the acting process's clock before the step *)
  after : Vclock.t;  (** after ticking and acquiring — the step's clock *)
  sync : bool;  (** did the step synchronize through its base object? *)
}

type t

val analyse : ?history:History.t -> Access_log.entry list -> t
(** One linear pass; O(steps x live pids).  With [?history], the first
    step of each transaction additionally acquires the final clocks of all
    transactions that completed before it was invoked. *)

val steps : t -> step list
(** In trace order. *)

val length : t -> int
val step : t -> int -> step
(** By dense position.  @raise Invalid_argument when out of range. *)

val pos_of_index : t -> int -> int option
(** Resolve a global step index ([Access_log.entry.index]) to a position
    in the analysed trace ([None] if the index was not in the trace, e.g.
    dropped from a flight recording's window). *)

val happens_before : t -> int -> int -> bool
(** [happens_before t a b] — by dense positions; irreflexive. *)

val concurrent_pos : t -> int -> int -> bool

val clock_of_pid : t -> int -> Vclock.t
(** Final clock of a process after the whole trace. *)

val is_sync : Primitive.t -> bool
(** Does a primitive kind synchronize (RMW-class), as opposed to a plain
    read/write data access? *)

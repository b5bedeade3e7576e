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

type t

val analyse : ?history:History.t -> Access_log.window -> t
(** One linear pass; O(steps x live pids).  With [?history], the first
    step of each transaction additionally acquires the final clocks of all
    transactions that completed before it was invoked. *)

val length : t -> int

val clock : t -> int -> Vclock.t
(** The clock of the step at a window offset: the acting process's clock
    after ticking and acquiring.
    @raise Invalid_argument when out of range. *)

val happens_before : t -> int -> int -> bool
(** [happens_before t a b] — by window offsets; irreflexive. *)

val concurrent_pos : t -> int -> int -> bool

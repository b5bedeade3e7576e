(** Obstruction-freedom (Section 3): a transaction may be aborted only if
    other processes take steps during its execution interval.  The
    detector flags every abort without step contention; solo-run
    non-termination (blocking) is detected separately by scheduler step
    budgets. *)

open Tm_base
open Tm_trace

type violation = {
  tid : Tid.t;
  interval : int * int;  (** step interval of the transaction *)
}

val pp_violation : Format.formatter -> violation -> unit

val violations : History.t -> Access_log.window -> violation list
(** Every aborted transaction with no step of another process in its
    interval.  A transaction whose first event precedes the window's first
    global index is skipped: its contention may lie in steps the window
    does not hold. *)

val holds : History.t -> Access_log.window -> bool

(** The triangle verdict: which of Parallelism / Consistency / Liveness a
    TM loses, with concrete evidence — the executable Section 5.  Evidence
    combines the construction's own failures, strict-DAP violations on the
    beta/beta' logs and on dedicated scenarios (disjoint pair; the
    3-transaction status-word chain), obstruction-freedom probes, and
    weak-adaptive-checker refutations of restricted histories. *)

open Tm_impl

type leg = Holds | Violated of string

val pp_leg : Format.formatter -> leg -> unit

type t = {
  impl_name : string;
  parallelism : leg;
  consistency : leg;
  liveness : leg;
  notes : string list;
}

val assess : Tm_intf.impl -> t
val pp : Format.formatter -> t -> unit

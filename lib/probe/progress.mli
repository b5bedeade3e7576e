(** The liveness profile (T-E): suspend a 2-item writer at every point of
    its solo run and probe whether another transaction still finishes solo
    — once conflicting (obstruction-freedom) and once disjoint (where
    strict DAP alone should guarantee progress). *)

open Tm_impl

type profile = {
  points : int;  (** suspension points probed *)
  commits : int;
  aborts : int;
  stalls : int;
}

val entry : disjoint:bool -> Solo_probe.entry
(** T50 (writes x, y) against T51 (reads and writes x) or, [disjoint], T52
    (reads and writes z); exposed for the probe law in [test_probe]. *)

val run : Tm_intf.impl -> disjoint:bool -> profile
(** The first max(n, 1) points of {!entry}. *)

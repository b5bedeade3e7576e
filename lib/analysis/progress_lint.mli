(** The progress-guarantee passes, after the Kuznetsov–Ravi corpus:
    detectors for {e progressiveness} ("Progressive Transactional Memory
    in Time and Space") and {e partial wait-freedom} ("On Partial
    Wait-Freedom in Transactional Memory") — the two triangle corners
    adjacent to the PCL theorem's.

    [progressiveness] is trace-level: every TM-forced abort must be
    attributable to a read-write conflict with a concurrent transaction
    (from the history's invoked/effective data sets), and every
    step-contention-free transaction must commit within the horizon.

    [pwf] is probe-driven (the input only names a TM): a branch scan
    suspends a conflicting writer at every depth of its solo run and
    requires the read-only transaction to commit solo, then a fair
    round-robin contention probe counts read-only aborts.  Failures are
    [Error] findings with the suspension depth as the step-level witness;
    the per-role classification (read-only vs updating transactions) is
    an always-expected [Info] finding, with the updater side read from
    the TM's declared [contract]. *)

open Tm_impl

val progressiveness : Lint.pass
(** ["progressiveness"]: unattributable forced aborts + solo stalls. *)

val pwf : Lint.pass
(** ["pwf"]: the read-only wait-freedom probes.  Needs [input.tm] to name
    a registered TM (silent otherwise). *)

type reader_outcome =
  | Reader_wait_free
  | Reader_aborts of int  (** suspension depth of the passive writer *)
  | Reader_stalls of int

val reader_probe : Lint.config -> Tm_probe.Solo_probe.entry
(** Probe (a): T21 (writes x, y) against T23 (reads x, y) for three
    horizons; exposed for the probe law in [test_probe]. *)

val reader_scan : Lint.config -> Tm_intf.impl -> reader_outcome
(** Probe (a)'s first failing point, exposed for tests. *)

val reader_aborts_under_contention : Tm_intf.impl -> int
(** Probe (b): read-only aborts under fair round-robin contention. *)

val passes : Lint.pass list
(** [[progressiveness; pwf]], in registration order. *)

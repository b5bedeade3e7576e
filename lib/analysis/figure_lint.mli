(** The figure-consistency pass: re-run the paper's constructions
    (Figures 1-6) against a live TM and assert that the trace passes fire
    exactly where the proof says they must.

    For every TM the serial execution delta1 (T1 to commit, then T3 to
    commit) must be lint-clean.  The adversarial side then splits on how
    the TM pays its PCL tax:
    - if beta / beta' can be assembled, they must trip exactly the passes
      recorded in the expectation table (strict-DAP on centralized
      metadata, races on unsynchronized accesses, ...);
    - if the construction fails, the failure kind must match: a liveness
      failure for the blocking corner, a missing flip for the
      weak-consistency corner;
    - TMs marked [stalls] must additionally trip [of-stall] on the stall
      probe: the recording of the first point at which the reader, run
      solo past the horizon with the writer paused mid-run, does not
      commit.

    Any drift — a pass newly firing, an expected one falling silent, or a
    changed failure kind — is reported as an [Error] finding. *)

open Tm_impl

type outcome =
  | Built of string list
      (** construction succeeded; passes fired on beta or beta' (sorted,
          deduplicated) *)
  | Liveness_blocked of string
      (** rendered liveness failure: some solo run never completed *)
  | No_flip of string
      (** rendered consistency failure: the reader never observes the
          committed write, so no critical step exists *)
  | Crashed of string

type observation = {
  serial : string list;
      (** trace passes that fired on delta1 — must be empty *)
  outcome : outcome;
  stall : string list;
      (** passes fired on the recording of the first stall-probe point at
          which the reader does not commit; empty when it always
          commits *)
}

val stall_probe : Lint.config -> Tm_probe.Solo_probe.entry
(** T1 against T3 for three horizons, read at k = 1..40; exposed for the
    probe law in [test_probe] and the horizon cases in [test_analysis]. *)

val observe : ?config:Lint.config -> Tm_intf.impl -> observation
(** Replay delta1, the construction and the stall probe's first failing
    point with a private flight recorder, running every trace pass on
    each recording.  Only [config.horizon] is used: the passes judge
    strict DAP with [`Direct] connectivity, as the theorem states it,
    whatever the output settings. *)

type expectation = {
  build : [ `Ok | `Blocks | `No_flip ];
  fires : string list;  (** passes expected on beta / beta' under [`Ok] *)
  stalls : bool;  (** must the stall probe trip [of-stall]? *)
}

val expected : string -> expectation option
(** The per-TM expectation table, keyed by registry name: observations,
    whose corner entries ([build], [stalls]) the test suite checks
    against each TM's declared contract. *)

val pass : Lint.pass
(** ["figure-consistency"]: needs [input.tm] to name a registered TM
    (silent otherwise, since it replays executions rather than reading
    the input trace). *)

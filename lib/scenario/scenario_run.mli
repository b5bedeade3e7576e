(** The conformance runner: execute catalogue scenarios against their
    TM x CM cells and judge each cell against the scenario's declared
    expectation.  Crash-contained — an exception (or an injected crash)
    inside one cell is caught and reported as that cell's failure, never
    aborting the sweep — and wall-clock-free, so the JSONL rows are
    byte-deterministic under a fixed seed. *)

open Tm_impl
open Tm_chaos

type inject = No_inject | Inject_crash | Inject_stall
(** Failure-path injections for the containment tests: [Inject_crash]
    raises inside the scenario's first cell; [Inject_stall] shrinks the
    first cell's step budget to a handful of steps and holds it to
    [expect.stop = "completed"], forcing a budget-exhaustion failure. *)

type cell = {
  tm : string;
  cm : string;
  reason : string option;
      (** [None] = pass; otherwise one of [crash], [timeout], [stop],
          [wellformed], [verdict], [lint], [commits] *)
  detail : string;
}

type row = {
  id : string;
  family : string;
  fault : string;
  cells : int;
  passed : int;
  failed : int;
  quarantine : bool;
  status : string;  (** [pass], [fail], or [quarantine] (known-bad) *)
  failures : cell list;  (** the failing cells, in sweep order *)
}

val cells_of : Scenario.t -> (Tm_intf.impl * Cm.policy) list
(** The scenario's cell space: its [tms] x [cms] selections ([] = all). *)

val simulate :
  Scenario.t -> budget:int -> seed:int -> Tm_intf.impl -> Cm.policy ->
  Tm_runtime.Sim.result * int
(** One cell's execution, without the judging: the scenario's workload on
    the TM under the contention manager and the fault plan, driven until
    its first halting atom.  Returns the snapshot and the commit count. *)

val run_cell :
  Scenario.t -> inject:inject -> seed:int -> Tm_intf.impl -> Cm.policy ->
  cell

val cell_seed : seed:int -> Scenario.t -> int -> int
(** The sub-seed of the scenario's [idx]-th cell (in {!cells_of} order)
    under sweep seed [seed], via {!Prng.derive}. *)

val run_row :
  ?tick:(unit -> unit) -> inject:inject -> seed:int -> Scenario.t -> row
(** Run every cell of one scenario ([tick] fires per cell); the per-cell
    seeds are {!cell_seed}s, derived from [seed] and the scenario id. *)

val row_json : row -> Tm_obs.Obs_json.t
(** The [{"type":"conform"}] JSONL row — also the journal line format. *)

val cell_json : id:string -> cell -> Tm_obs.Obs_json.t
(** The optional per-cell [{"type":"conform_cell"}] row. *)

val journal_load : string -> (string * string * string) list
(** Parse a resume journal: [(id, status, raw line)] per well-formed
    line, in file order; unparseable lines (a write cut short by the
    interrupt) are dropped. *)

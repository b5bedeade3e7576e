(** The chaos sweep: TMs x fault classes x contention managers, each cell
    one deterministic simulation.  No wall-clock anywhere — the same seed
    yields byte-identical JSONL. *)

open Tm_impl

type cfg = {
  tms : Tm_intf.impl list;
  faults : Fault.klass list;
  cms : Cm.policy list;
  n_procs : int;
  txns_per_proc : int;
  rounds : int;  (** scheduled round-robin rounds before the drain phase *)
  quantum : int;  (** steps per process per round *)
  seed : int;
  budget : int;  (** per-[Until_done] step budget of the drain phase *)
  closure_budget : int;  (** checker node budget for crash-closure *)
}

val default : cfg
val small : cfg
(** A preset for CI smoke runs. *)

type cell = {
  tm : string;
  fault : string;
  cm : string;
  victim : int option;
  commits : int;
  expected : int;  (** transactions the workload would commit fault-free *)
  gave_up : int;
  retry_hist : (int * int) list;
      (** aborts-endured-per-transaction -> how many transactions *)
  backoff_steps : int;
  steps : int;
  stop : string;
  crashes : int;  (** injected crash-stops that actually landed *)
  closure_violations : int;  (** crash-closure Error flips — must be 0 *)
  wac_witnesses : int;  (** crash-closure Info flips (adaptive condition) *)
  skipped : int;
      (** crash-closure cores skipped as too large to check (more than
          [Crash_closure.max_core_txns] transactions), per cell *)
  degradation : string;  (** vs the same (tm, cm) fault-free control cell *)
}

val run_cell : cfg -> Tm_intf.impl -> Fault.klass -> Cm.policy -> cell

val combos : cfg -> (Tm_intf.impl * Fault.klass * Cm.policy) list
(** The iteration space of {!matrix}, exposed for callers that need
    per-cell setup (e.g. a flight recorder per cell); pass the collected
    cells to {!finalize}. *)

val finalize : cfg -> cell list -> cell list
(** Fill in every cell's degradation class against its (tm, cm) control
    row. *)

val matrix : cfg -> cell list
val cell_json : cell -> Tm_obs.Obs_json.t

(** The pclsan lint framework: findings, pass interface, configuration,
    inputs, and a plug-in registry.

    A {e pass} inspects one execution — its step trace, history and
    derived footprints — and reports findings localized at the first
    offending step, each carrying a provenance-style witness (the
    transactions and global step indices that exhibit the property).
    Built-in passes live in {!Lints}; external code can {!register} more
    (the registry mirrors [Tm_impl.Registry]'s name/prefix lookup). *)

open Tm_base
open Tm_trace
open Tm_dap

(** {1 Findings} *)

type severity = Info | Warning | Error

val severity_to_string : severity -> string

type finding = {
  pass : string;  (** the reporting pass *)
  severity : severity;
  step : int option;  (** global index of the first offending step *)
  txns : Tid.t list;  (** offending transactions *)
  oids : Oid.t list;  (** base objects involved *)
  witness_steps : int list;  (** global step indices of the witness *)
  message : string;
}

val pp_finding :
  ?name_of:(Oid.t -> string) -> Format.formatter -> finding -> unit

val finding_json : finding -> Tm_obs.Obs_json.t
(** One JSONL line: [{"type":"finding","pass":...,...}]. *)

val to_flight_verdict : finding -> Flight.verdict
(** A finding as a flight-recorder verdict line, so `pcl_tm lint` results
    can be attached to trace artifacts and rendered by `explain`. *)

(** {1 Configuration} *)

type config = {
  horizon : int;
      (** of-stall: solo steps a transaction may run contention-free
          without completing before it is flagged *)
  dap_connectivity : [ `Direct | `Path ];
      (** strict-dap: flag contention between transactions whose data sets
          are disjoint ([`Direct], the paper's strict DAP) or that are not
          even connected in the conflict graph ([`Path], the weaker
          graph-DAP reading) *)
  max_findings : int;  (** per pass, to keep floods readable *)
}

val default : config

val cap : config -> finding list -> finding list
(** The first [max_findings] findings (none when it is 0 or less). *)

(** {1 Inputs} *)

type input = {
  log : Access_log.window;  (** the step trace *)
  history : History.t;
  name_of : Oid.t -> string;
  data_sets : Conflict.data_sets option;
      (** static per-transaction data sets when known (fuzz/figures);
          passes fall back to footprints derived from the history *)
  tm : string option;  (** the TM that produced the trace, when known *)
  meta : (string * string) list;
}

val input_of_flight : Flight.t -> input
(** Lint a recorded artifact: steps, history, names and the ["tm"] meta
    key are taken from the recorder. *)

val effective_data_sets : input -> Conflict.data_sets
(** The static data sets if given, else {!Conflict.of_history} — the
    dynamic footprints the strict-DAP and progressiveness passes use. *)

(** {1 Passes} *)

type pass = {
  name : string;
  describe : string;
  paper : string;  (** paper reference(s) for the property *)
  run : config -> input -> finding list;
}

val register : pass -> unit
(** Add a pass to the plug-in registry (deduplicated by name; later
    registrations win).  Built-in passes need no registration. *)

val registered : unit -> pass list
(** Plug-in passes, in registration order. *)

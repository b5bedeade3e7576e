(** The flight recorder: a window over the step log of the world it
    records, the run's history and metadata, and verdict-provenance lines —
    everything needed to re-render, replay and explain an execution after
    the fact.

    One recorder holds one execution: [Sim] attaches the installed
    recorder to the log of every world it builds, so after a replay (or
    inside an explorer callback) the window is exactly that execution's
    step sequence.  Recording copies nothing: the window reads the log's
    columns when it is exported, and keeps that log alive until the next
    {!attach} or {!reset}.

    Export formats: JSONL ({!to_jsonl}; re-imported losslessly by {!parse})
    and Chrome trace-event JSON ({!to_chrome}, loadable in Perfetto). *)

open Tm_base

type verdict = {
  source : string;  (** checker or detector name *)
  verdict : string;  (** e.g. ["unsat"], ["violated"] *)
  axiom : string;  (** the violated condition, in words *)
  witness_txns : Tid.t list;  (** offending transactions *)
  witness_steps : int list;  (** offending global step indices *)
}
(** Minimal provenance for a negative verdict — who rejected the run, which
    axiom failed, and the witness to highlight on the timeline. *)

type t

val default_cap : int
(** 65536 steps. *)

val create : ?cap:int -> unit -> t
(** A detached recorder whose window keeps at most [cap] trailing steps.
    @raise Invalid_argument if [cap <= 0]. *)

val attach : t -> Access_log.t -> unit
(** Record the execution behind this log: {!reset}, then make the window
    the log's last [min (length log) cap] steps, read when queried (steps
    the log takes later are in it). *)

val reset : t -> unit
(** Detach from the log and drop names, history, meta and verdicts. *)

val recorded : t -> int
(** Steps ever recorded (retained or not). *)

val dropped : t -> int
(** Steps recorded but not retained: those before the log's last [cap],
    plus any an imported artifact declared dropped. *)

val steps : t -> Access_log.window
(** The retained steps: the log's last [min (length log) cap], whose first
    global index is {!dropped}. *)

val find_step : t -> int -> Access_log.entry option
(** Look up a retained step by its global index ([Access_log.entry.index]),
    e.g. to render a lint finding's witness; [None] once the window has
    dropped it. *)

(** {1 Run context} *)

val set_names : t -> string array -> unit
(** Object-name table, indexed by oid. *)

val name_of : t -> Oid.t -> string
(** Falls back to ["oid7"]-style names beyond the table. *)

val set_history : t -> History.t -> unit
val history : t -> History.t

val set_meta : t -> string -> string -> unit
(** Append a key/value (e.g. ["tm"], ["schedule"], ["seed"], ["stop"]). *)

val meta : t -> (string * string) list
val meta_value : t -> string -> string option

val add_verdict : t -> verdict -> unit
val verdicts : t -> verdict list

(** {1 The process-wide recorder}

    Mirrors [Sink.default]: while [with_recorder] runs, [Sim] attaches
    the recorder to every world it builds, without threading it through
    signatures. *)

val default : unit -> t option

val with_recorder : t -> (unit -> 'a) -> 'a
(** Install the recorder, run the thunk, restore the previous one. *)

(** {1 Export / import} *)

val to_jsonl : t -> string
(** The artifact format (one JSON object per line; schema in
    docs/OBSERVABILITY.md).  [parse (to_jsonl t)] reconstructs [t]'s
    window, and re-exporting the parse yields the same string. *)

val parse : string -> (t, string) result
(** Rebuild an artifact: its steps go into a log of the recorder's own,
    indexed from the artifact's [dropped] count.  An error names the
    offending line, e.g. a step whose index is not the next one, whose
    pid lies outside [0 .. Access_log.max_pid], or whose oid or
    transaction does not fit its width in the log. *)

val load : string -> (t, string) result
(** [load path] reads and parses a dumped artifact. *)

val to_chrome : t -> Tm_obs.Obs_json.t
(** Chrome trace-event JSON: transactions as complete events, steps as
    instants, logical step indices as timestamps. *)

(** {1 Codec internals shared with other exporters} *)

val value_json : Value.t -> Tm_obs.Obs_json.t
val prim_json : Primitive.t -> Tm_obs.Obs_json.t

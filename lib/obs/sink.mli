(** The telemetry sink: a metrics registry plus a span tracer plus run
    metadata, with in-memory aggregation (a table printer) and JSONL
    export.

    A process-wide {!default} sink exists so instrumentation deep in the
    stack records without threading a sink through every signature; the
    CLI resets it at the start of a run and exports it at the end.  The
    JSONL schema is documented in docs/OBSERVABILITY.md. *)

type t

val create :
  ?cap:int -> ?clock:(unit -> float) -> ?steps:(unit -> int) -> unit -> t

val default : t
(** The process-wide sink all [Sink.incr]/[Sink.span]/... conveniences
    record into. *)

val metrics : t -> Metrics.t
val tracer : t -> Span.t

val set_meta : t -> string -> string -> unit
(** Attach a key/value to the run line of the export (last write per key
    wins). *)

val meta : t -> (string * string) list

val reset : t -> unit
(** Zero all metrics, drop all spans, clear metadata.  Metric handles
    resolved before the reset stay valid. *)

(** {1 Recording into {!default}} *)

val incr : ?labels:Metrics.labels -> string -> unit
val add : ?labels:Metrics.labels -> string -> int -> unit
val observe : ?labels:Metrics.labels -> string -> float -> unit
val span : ?labels:Metrics.labels -> string -> (unit -> 'a) -> 'a
val with_step_source : (unit -> int) -> (unit -> 'a) -> 'a

val counter : ?labels:Metrics.labels -> string -> Metrics.counter Lazy.t
(** A handle on a {!default} counter, resolved once per process.  The
    cell is registered when the handle is first forced, so force it only
    where the site counts: a cell that never counts must stay absent from
    the export.  Handles stay valid across {!reset}. *)

val histogram : ?labels:Metrics.labels -> string -> Metrics.histogram Lazy.t
(** {!counter} for a histogram. *)

val time : ?labels:Metrics.labels -> string -> (unit -> 'a) -> 'a
(** Run the thunk, observing its wall duration (ns) into the named
    histogram. *)

(** {1 Export} *)

val jsonl_values : t -> Obs_json.t list
(** One JSON object per JSONL line: the run line, every metric sample
    (sorted), every buffered span, and a [spans_dropped] line if the span
    cap was hit. *)

val to_jsonl : t -> string
val pp_table : Format.formatter -> t -> unit

(** Named counters and histograms with labelled cardinality.

    A registry maps (metric name, canonical label set) to a mutable cell.
    Hot paths resolve a handle once and pay one mutation per event; the
    one-shot [*_c]/[*_h] conveniences look the cell up each time.

    Metric-name conventions used across the workbench (documented in
    docs/OBSERVABILITY.md): counters end in [_total]; histograms carry a
    unit suffix ([_ns], [_steps], ...); labels are low-cardinality
    ([tm], [pid], [prim], [checker], [verdict], [reason], ...). *)

type labels = (string * string) list
(** Label order is irrelevant: labels are canonicalized by key. *)

val canon : labels -> labels
(** Sort labels by key (the canonical time-series identity). *)

type t
(** A registry. *)

val create : unit -> t

(** {1 Handles — resolve once, mutate cheaply} *)

type counter
type histogram

val counter : t -> ?labels:labels -> string -> counter
(** @raise Invalid_argument if the name is registered with another kind. *)

val histogram : t -> ?labels:labels -> string -> histogram

val inc : counter -> unit
val add : counter -> int -> unit
val counter_value : counter -> int
val observe : histogram -> float -> unit

(** {1 One-shot conveniences} *)

val incr_c : t -> ?labels:labels -> string -> unit
val add_c : t -> ?labels:labels -> string -> int -> unit
val observe_h : t -> ?labels:labels -> string -> float -> unit

(** {1 Snapshots} *)

type hist_stats = {
  count : int;
  sum : float;
  min : float;
  max : float;
  p50 : float;
  p95 : float;
  p99 : float;
}
(** [min]/[max]/quantiles are 0 when [count] is 0.  Quantiles are
    nearest-rank estimates over a bounded, deterministically decimated
    sample buffer: exact for streams of up to 512 observations, an evenly
    spaced sketch beyond that.  No randomness — identical observation
    streams yield identical quantiles. *)

type value = VCounter of int | VHistogram of hist_stats

type sample = { name : string; labels : labels; value : value }

val snapshot : t -> sample list
(** All cells, sorted by (name, labels) — a deterministic order. *)

val find : t -> ?labels:labels -> string -> value option
val names : t -> string list

val sum_counters : t -> string -> int
(** Sum of a counter over all its label sets. *)

val reset : t -> unit
(** Zero every cell in place; previously resolved handles stay valid. *)

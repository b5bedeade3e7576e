(** Text rendering of the paper's Figures 1-6 from a claims report. *)

open Tm_base
open Tm_impl

val pp_step : Format.formatter -> Access_log.entry -> unit

val pp_fig12 :
  Format.formatter -> [ `Fig1 | `Fig2 ] -> Constructions.t -> unit

val pp_schedule_line :
  Format.formatter -> string * Tm_runtime.Schedule.atom list -> unit

val pp_txn_row :
  Claims.side -> Format.formatter -> Static_txn.spec -> unit

val pp_table : int list -> Claims.side -> Format.formatter -> unit -> unit
val pp_check : Format.formatter -> Claims.value_check -> unit
val pp_report : Format.formatter -> Claims.report -> unit

val pp_lanes :
  Format.formatter -> Claims.side * Tm_runtime.Schedule.atom list -> unit
(** Per-process lane rendering of a side's schedule — the visual layout of
    the paper's Figures 5-6, with the adversarial steps s1/s2 marked. *)

(** {1 Flight-recorder timelines} *)

val record_run :
  Tm_intf.impl ->
  Tm_runtime.Schedule.atom list ->
  Harness.run * Tm_trace.Flight.t
(** Replay a schedule with a fresh flight recorder installed; the returned
    recorder holds the execution's steps, history and names. *)

val render_timeline :
  ?width:int ->
  Tm_intf.impl ->
  Tm_runtime.Schedule.atom list ->
  highlight_steps:(Harness.run -> int list) ->
  string
(** Replay and render one schedule as timeline art; [highlight_steps]
    picks the witness steps from the finished run. *)

val render_constructions : ?width:int -> Constructions.t -> string
(** The paper's Figures 1-6 as per-process timeline art, the critical
    steps s1/s2 highlighted (`pcl_tm figures --render`). *)

(** Begin/end span tracing with nesting, wall-clock and step durations.

    A tracer keeps a bounded buffer of completed spans (in completion
    order).  The step clock is injectable: the simulator binds it to the
    current memory's step counter during a replay, so spans report both
    wall time and atomic-step counts — the paper's own cost measure. *)

type span = {
  name : string;
  labels : Metrics.labels;
  depth : int;  (** nesting depth when the span began, 0 = root *)
  seq : int;  (** completion order, 0-based *)
  start_step : int;
  end_step : int;
  wall_ns : int;
}

val steps_of : span -> int
(** [end_step - start_step]. *)

type t

val create :
  ?cap:int -> ?clock:(unit -> float) -> ?steps:(unit -> int) -> unit -> t
(** [cap] bounds the buffer (default 10_000; overflow counts as
    [dropped]); [clock] returns seconds ({!Unix.gettimeofday} by
    default); [steps] is the step clock (constant 0 by default). *)

val with_step_source : t -> (unit -> int) -> (unit -> 'a) -> 'a
(** Bind the step clock for the duration of the thunk (restored on exit,
    also on exceptions). *)

val with_ : t -> ?labels:Metrics.labels -> string -> (unit -> 'a) -> 'a
(** Run the thunk inside a span, recorded on completion (also when the
    thunk raises). *)

val spans : t -> span list
(** Completed spans in completion order. *)

val count : t -> int
val dropped : t -> int
val reset : t -> unit

(* Begin/end span tracing with nesting, wall-clock and step durations.

   A tracer keeps a bounded buffer of completed spans (completion order).
   The "step clock" is injectable: the simulator binds it to the current
   memory's step counter for the duration of a replay, so spans report
   both wall time and the number of atomic steps they covered — the
   paper's own cost measure. *)

type span = {
  name : string;
  labels : Metrics.labels;
  depth : int;  (** nesting depth at the time the span began, 0 = root *)
  seq : int;  (** completion order, 0-based *)
  start_step : int;
  end_step : int;
  wall_ns : int;
}

let steps_of (s : span) = s.end_step - s.start_step

type t = {
  clock : unit -> float;  (** seconds; injectable for deterministic tests *)
  mutable steps : unit -> int;
  mutable depth : int;
  mutable seq : int;
  mutable spans_rev : span list;
  mutable n_spans : int;
  mutable dropped : int;
  cap : int;
}

let default_cap = 10_000

let create ?(cap = default_cap) ?(clock = Unix.gettimeofday)
    ?(steps = fun () -> 0) () =
  {
    clock;
    steps;
    depth = 0;
    seq = 0;
    spans_rev = [];
    n_spans = 0;
    dropped = 0;
    cap;
  }

(** Bind the step clock for the duration of [f] (restored afterwards, even
    on exceptions) — used by [Sim.replay] to report step durations against
    the replay's own memory. *)
let with_step_source t steps f =
  let saved = t.steps in
  t.steps <- steps;
  Fun.protect ~finally:(fun () -> t.steps <- saved) f

(** Run [f] inside a span.  The span is recorded on completion, also when
    [f] raises.  Buffer overflow past the cap counts into [dropped]
    instead of growing without bound (the explorer replays hundreds of
    thousands of schedules). *)
let with_ t ?(labels = []) name f =
  let start_step = t.steps () in
  let t0 = t.clock () in
  let depth = t.depth in
  t.depth <- depth + 1;
  let finish () =
    t.depth <- depth;
    let wall_ns = int_of_float ((t.clock () -. t0) *. 1e9) in
    let sp =
      {
        name;
        labels = Metrics.canon labels;
        depth;
        seq = t.seq;
        start_step;
        end_step = t.steps ();
        wall_ns;
      }
    in
    t.seq <- t.seq + 1;
    if t.n_spans < t.cap then begin
      t.spans_rev <- sp :: t.spans_rev;
      t.n_spans <- t.n_spans + 1
    end
    else t.dropped <- t.dropped + 1
  in
  Fun.protect ~finally:finish f

let spans t = List.rev t.spans_rev
let count t = t.n_spans
let dropped t = t.dropped

let reset t =
  t.spans_rev <- [];
  t.n_spans <- 0;
  t.dropped <- 0;
  t.seq <- 0

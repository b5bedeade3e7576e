(** Figure-style timeline rendering: per-process lanes over a global
    column axis interleaving atomic steps with transactional markers
    (['('] begin, ['C'] committed, ['A'] aborted), an optional witness row
    (['^'] under the steps a verdict points at) and per-object contention
    rows (['x'] non-trivial / ['-'] trivial accesses of base objects
    touched by several processes).

    Output is pure ASCII, wrapped into bands of [width] columns with a
    step-index ruler on top of each band — the terminal-art counterpart of
    the paper's Figures 1-6. *)

open Tm_base

val render :
  ?width:int ->
  ?highlight:int list ->
  names:(Oid.t -> string) ->
  History.t ->
  Access_log.window ->
  string
(** [render ~names history steps] draws the execution.  [width] (default
    72) is the band width in columns; [highlight] lists global step
    indices to mark on the witness row. *)

val render_flight : ?width:int -> ?highlight:int list -> Flight.t -> string
(** Render a recorded execution; [highlight] defaults to the union of the
    recorder's verdict witness steps. *)

val legend : string

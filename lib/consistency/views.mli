(** Multi-view search with write-order agreement.

    Processor consistency (Def. 3.2, condition 1b) and weak adaptive
    consistency (Def. 3.3, condition 2) give each process its own
    serialization but require writes to a common data item to be ordered
    identically in every view.  Views are searched process by process:
    each solution of a view fixes a direction for every common-writer
    pair, and those directions become precedence constraints on the
    remaining views.  Solutions are deduplicated by direction signature:
    one character per pair index. *)

open Tm_base

type view = { view_pid : int; problem : Placement.problem }

val solve_agreeing :
  ?witness:(int * int list) list ref ->
  budget:int ref ->
  Blocks.t ->
  view list ->
  pairs:(int * int) array ->
  Spec.verdict
(** Is there one placement per view such that all views agree on the
    direction of every pair?  [pairs.(k)] holds the two points carrying
    the writes of the k-th common-writer pair, at the same indices in
    every view.  On Sat, [witness] (if given) receives each view's chosen
    order of point indices, keyed by view pid. *)

val common_writer_pairs : Blocks.t -> Tid.t list -> (Tid.t * Tid.t) list
(** Unordered pairs of distinct transactions whose write sets intersect —
    the pairs subject to agreement. *)

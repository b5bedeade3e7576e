(** Weak adaptive consistency, Definition 3.3 — the paper's new condition
    and the weakest in its lattice (weaker than snapshot isolation,
    processor consistency, and even their union).

    The checker follows the definition's quantifier structure literally:
    there exist a consistency partition of the begin order into contiguous
    groups, a typing of each group as snapshot-isolation or
    processor-consistency, a com(alpha) set, and per-process serialization
    points — SI-group members get separate T_gr/T_w points inside their own
    active intervals, PC-group members get one fused point inside the
    group's active interval — such that same-item write order is agreed
    across views and each process's transactions read legally in its own
    view. *)

open Tm_base
open Tm_trace

type group = { members : Tid.t list; window : int * int }

val partitions : History.t -> Blocks.t -> group list Seq.t
(** All consistency partitions P(alpha), lazily, with each group's active
    execution interval as its window. *)

(** [com_filter] restricts the com(alpha) candidates considered — used to
    mechanize the proof's delta lemmas ("T2 cannot be in com(delta2)"):
    if the check is Unsat with [com_filter = Tid.Set.mem t2], every
    satisfying choice excludes T2. *)
val check :
  ?budget:int ->
  ?com_filter:(Tid.Set.t -> bool) ->
  History.t ->
  Spec.verdict
val checker : Spec.checker

val explain : ?budget:int -> History.t -> Witness.t option
(** The full witness — partition, group typing, com(alpha) and per-process
    placements — when one exists. *)

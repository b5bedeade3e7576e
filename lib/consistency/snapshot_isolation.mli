(** Snapshot isolation, Definition 3.1 — the paper's deliberately *weak*
    variant: one shared view; for each transaction in com(alpha), a
    global-read point and a write point inside its active execution
    interval with the read point first; the induced history of T_gr/T_w
    blocks is legal.  Deliberately absent, as in the paper: the
    first-committer-wins rule, and any constraint on reads following a
    write to the same item. *)

open Tm_base
open Tm_trace

val check : ?budget:int -> History.t -> Spec.verdict
val checker : Spec.checker

(** {1 Shared with the weak-adaptive checker} *)

type plan = {
  points : Placement.point array;
  prec : (int * int) list;
  w_point : Tid.t -> int option;
}

val si_points : Blocks.t -> Tid.t list -> plan
(** Build the SI points for the given transactions: a [Greads] and a
    [Wblock] point per transaction (empty blocks omitted), windows equal to
    the active execution interval, read point before write point. *)

val explain : ?budget:int -> History.t -> Witness.t option
(** The witness placement (read and write points), when one exists. *)

(** Snapshot isolation, Definition 3.1 — the paper's deliberately *weak*
    variant: one shared view; for each transaction in com(alpha), a
    global-read point and a write point inside its active execution
    interval with the read point first; the induced history of T_gr/T_w
    blocks is legal.  Deliberately absent, as in the paper: the
    first-committer-wins rule, and any constraint on reads following a
    write to the same item. *)

open Tm_trace

val check : ?budget:int -> History.t -> Spec.verdict
val checker : Spec.checker

val explain : ?budget:int -> History.t -> Witness.t option
(** The witness placement (read and write points), when one exists. *)

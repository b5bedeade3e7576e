(** Conflict serializability — the classical polynomial precedence-graph
    check.  Value-agnostic: on histories generated by an execution it
    implies the value-based {!Serializability} verdict (a cross-validation
    property the test suite exercises on TM runs), but on arbitrary
    hand-written histories it does not, so it is not part of the paper's
    lattice ({!Checkers.edges}). *)

open Tm_base
open Tm_trace

type op = { pos : int; tid : Tid.t; item : Item.t; is_write : bool }

val ops_of : History.t -> Tid.Set.t -> op list
val precedence_graph : History.t -> Tid.Set.t -> (Tid.t, Tid.Set.t) Hashtbl.t
val acyclic : (Tid.t, Tid.Set.t) Hashtbl.t -> bool

val check : ?budget:int -> History.t -> Spec.verdict
val checker : Spec.checker

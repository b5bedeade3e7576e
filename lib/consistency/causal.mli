(** Causal serializability [Raynal, Thia-Kime & Ahamad 97], as positioned
    by the paper: processor consistency strengthened so that every view
    also respects the causality relation — the transitive closure of
    process order and reads-from.  When several transactions wrote the
    same value to the same item the reads-from edge is ambiguous and is
    omitted (exact for all histories exercised here, which use
    distinguishable values). *)

open Tm_base
open Tm_trace

val causal_prec :
  History.t ->
  Blocks.t ->
  Tid.t list ->
  (Tid.t -> int option) ->
  (int * int) list

val check : ?budget:int -> History.t -> Spec.verdict
val checker : Spec.checker

(** Processor consistency, Definition 3.2: each process p_i has its own
    serialization sigma_i of whole transactions such that (1a) transactions
    of the same process keep their order in every view, (1b) writes to a
    common item are ordered identically in all views, and (2) every
    transaction executed by p_i is legal in the history induced by
    sigma_i. *)

open Tm_base
open Tm_trace

val check : ?budget:int -> History.t -> Spec.verdict
val checker : Spec.checker

val build_views :
  History.t ->
  Blocks.t ->
  Tid.Set.t ->
  extra_prec:(Tid.t list -> (Tid.t -> int option) -> (int * int) list) ->
  Views.view list * (int * int) array
(** The per-process view structure, shared with the PRAM and causal
    checkers ([extra_prec] adds per-view precedence constraints), and the
    write points of the common-writer pairs. *)

val explain_views :
  ?budget:int -> with_pairs:bool -> History.t -> Witness.t option

val explain : ?budget:int -> History.t -> Witness.t option
(** The per-process witness views, when they exist. *)

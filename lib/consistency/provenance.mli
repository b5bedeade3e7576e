(** Verdict provenance: minimal witnesses for negative checker verdicts.

    An [Unsat] alone says a history is inconsistent; provenance says
    {e why}: a locally-minimal core of transactions the checker still
    rejects, the violated axiom in words, and the core's step indices —
    what `pcl_tm explain` highlights on the rendered timeline. *)

open Tm_base
open Tm_trace

type t = {
  source : string;  (** checker name *)
  verdict : string;  (** always ["unsat"] here *)
  axiom : string;  (** the violated condition, in words *)
  txns : Tid.t list;  (** locally-minimal unsat core *)
  steps : int list;  (** global indices of the core's steps *)
}

val of_unsat :
  ?budget:int ->
  ?log:Access_log.window ->
  Spec.checker ->
  History.t ->
  t option
(** [Some p] iff the checker rejects the history.  [p.txns] is then a
    locally-minimal subset of its transactions that the checker still
    rejects (greedy element-wise minimization: removing any one of them
    makes the rest satisfiable).  When the execution's steps are given,
    [p.steps] lists the global indices of the core's steps among them. *)

val to_flight : t -> Flight.verdict
(** As a flight-recorder verdict line, ready to attach to a trace. *)

val pp : Format.formatter -> t -> unit

(** Assembling the proof's executions (Figures 1-4):
    alpha1 = T1 solo until C1^-, s1 the next step of p1; alpha2 = T2 solo
    from C1^- until C2^-, s2 the next step of p2;
    beta = alpha1.alpha2.s1.alpha3.alpha4.s2.alpha7 and
    beta' = alpha1.alpha2.s2.alpha5.alpha6.s1.alpha7'. *)

open Tm_base
open Tm_runtime
open Tm_impl

type failure =
  | Liveness_failure of { phase : string; detail : string }
  | Consistency_no_flip of {
      writer : Tid.t;
      reader : Tid.t;
      item : Item.t;
      value : Value.t;
    }
  | Crash of string

type t = {
  impl : Tm_intf.impl;
  k1 : int;  (** s1 is the k1-th step of T1's solo run *)
  s1 : Access_log.entry;
  k2 : int;  (** s2 is the k2-th step of T2's solo run from C1^- *)
  s2 : Access_log.entry;
  flip1 : Critical_step.found;
  flip2 : Critical_step.found;
}

val alpha1 : t -> Schedule.atom list
val s1_atom : Schedule.atom
val alpha2 : t -> Schedule.atom list
val s2_atom : Schedule.atom
val beta : t -> Schedule.atom list
val beta' : t -> Schedule.atom list

val delta1 : Schedule.atom list
(** T1 solo to commit, then T3 solo to commit — the history of the
    paper's opening case analysis. *)

val alpha1_s1_alpha3 : t -> Schedule.atom list
val alpha1_alpha3' : t -> Schedule.atom list

val build : Tm_intf.impl -> (t, failure) result
val pp_failure : Format.formatter -> failure -> unit

val delta2 : t -> Schedule.atom list
(** The proof's Claim-4 auxiliary execution: T2 cannot be in com. *)

val delta5 : t -> Schedule.atom list
(** The proof's Claim-5 auxiliary execution: T1 cannot be in com. *)

(** The solo-progress probe: run the enemy solo once to learn its length
    n; then, per suspension depth k = 0..n, run the enemy k solo steps
    and the probe solo after it.  Every liveness consumer reads these
    points: [Liveness_class], [Progress], verdict's L leg, lint's [pwf]
    and [figure-consistency] passes, and [Critical_step]. *)

open Tm_base
open Tm_runtime
open Tm_impl

type entry = {
  specs : Static_txn.spec list;  (** every process of the world *)
  prefix : Schedule.atom list;  (** run before the enemy's first step *)
  enemy : int;
  probe : int;
  budget : int;  (** bounds the enemy's solo run and every probe's *)
}
(** One row of the spec table: the experiment a consumer runs. *)

type outcome = Commit | Abort | Unfinished of Schedule.stop  (** the probe's *)

type point = {
  k : int;  (** the enemy's solo steps before it was suspended *)
  schedule : Schedule.atom list;
      (** [prefix @ [Steps (enemy, k); Until_done probe]], from C0 *)
  run : Sim.result;
  outcomes : (Tid.t, Static_txn.outcome) Hashtbl.t;
  outcome : outcome;
}

type t = {
  solo : Sim.result;  (** the enemy's solo run after the prefix *)
  n : int;  (** the enemy's steps in [solo] *)
  point : int -> point;  (** [point k] replays depth k *)
}

val scan : Tm_intf.impl -> entry -> t
(** The enemy's solo run; no point is replayed yet. *)

val points : ?from:int -> t -> point Seq.t
(** k = [from] (default 0) to n, each replayed when the sequence reaches
    it: a reader that stops at a point replays no later one. *)

val first_failure : point Seq.t -> point option
(** The first point whose probe did not commit. *)

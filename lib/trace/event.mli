(** History events: invocations and responses of the transactional
    routines begin_T, x.read(), x.write(v), commit_T and abort_T
    (Section 3, "Histories"). *)

open Tm_base

type op =
  | Begin
  | Read of Item.t
  | Write of Item.t * Value.t
  | Try_commit
  | Abort_call  (** the explicit abort_T routine *)

val pp_op : Format.formatter -> op -> unit
val show_op : op -> string
val equal_op : op -> op -> bool

type resp =
  | R_ok  (** response to begin / successful write *)
  | R_value of Value.t  (** response to a successful read *)
  | R_committed  (** C_T *)
  | R_aborted  (** A_T *)

val pp_resp : Format.formatter -> resp -> unit
val show_resp : resp -> string
val equal_resp : resp -> resp -> bool

type t =
  | Inv of { tid : Tid.t; pid : int; op : op; at : int }
  | Resp of { tid : Tid.t; pid : int; op : op; resp : resp; at : int }

val pp : Format.formatter -> t -> unit
val show : t -> string
val equal : t -> t -> bool

val tid : t -> Tid.t
val pid : t -> int

val at : t -> int
(** Global step count at which the event occurred.  Events are not steps
    themselves; [at] places them on the same axis as access-log steps. *)

val op : t -> op
val is_inv : t -> bool

val pp_compact : Format.formatter -> t -> unit

(** Values stored in base objects and data items.

    The paper models data items as integer cells (every item starts at 0),
    but base objects of real TM algorithms hold richer state: version
    pairs, locator tuples, commit records.  This small structured universe
    covers all of them, so that one {!Base_object} type serves every
    implementation. *)

type t =
  | VUnit
  | VBool of bool
  | VInt of int
  | VStr of string
  | VPair of t * t
  | VList of t list

val pp : Format.formatter -> t -> unit
val show : t -> string
val equal : t -> t -> bool
val compare : t -> t -> int

(** {1 Constructors} *)

val unit : t
val bool : bool -> t
val int : int -> t
val str : string -> t
val pair : t -> t -> t
val list : t list -> t

val initial : t
(** The initial value of every data item — the paper's 0. *)

(** {1 Projections}

    The [_exn] variants raise [Invalid_argument] on a constructor
    mismatch; they are used by TM implementations whose object layouts are
    invariants, so a mismatch is a bug, not a runtime condition. *)

val to_int : t -> int option
val to_int_exn : t -> int
val to_bool_exn : t -> bool
val to_pair_exn : t -> t * t
val to_list_exn : t -> t list

(** {1 Printing} *)

val pp_compact : Format.formatter -> t -> unit
(** Compact rendering for tables and figures: integers print bare. *)

val to_string : t -> string
(** [to_string v] is [pp_compact] rendered to a string. *)

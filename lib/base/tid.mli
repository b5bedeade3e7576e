(** Transaction identifiers.

    Chosen by the client — the PCL harness uses 1..7 for the paper's
    T1..T7.  Uniqueness within a run is the client's responsibility and is
    checked by history well-formedness. *)

type t = int

val pp : Format.formatter -> t -> unit
val show : t -> string
val equal : t -> t -> bool
val compare : t -> t -> int

val v : int -> t
(** @raise Invalid_argument on negative input. *)

val to_int : t -> int

val pp_name : Format.formatter -> t -> unit
(** Prints ["T3"]-style names, as in the paper. *)

val name : t -> string
(** The string {!pp_name} prints, built without a formatter. *)

module Set : Set.S with type elt = int
module Map : Map.S with type key = int

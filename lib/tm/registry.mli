(** All TM implementations: one per corner of the paper's triangle, the
    candidate the theorem kills, and the TL2 ablation. *)

val all : Tm_intf.impl list
val name : Tm_intf.impl -> string
type lookup =
  | Found of Tm_intf.impl
  | Ambiguous of string list  (** candidate names the prefix matches *)
  | Unknown

val lookup : string -> lookup
(** Exact name match, or a unique-prefix match ([tl2] resolves to
    [tl2-clock]); an ambiguous prefix like [tl] reports its candidates. *)

val find : string -> Tm_intf.impl option
(** [lookup] collapsed to an option. *)

val find_exn : string -> Tm_intf.impl
(** @raise Invalid_argument on unknown or ambiguous names; the ambiguous
    message lists the matching candidates. *)

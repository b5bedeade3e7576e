(** A base object: a value cell plus a lock word and LL/SC reservations,
    so one object type serves as register, CAS word, fetch&add counter,
    lock, or LL/SC cell.  {!apply} is the atomic step semantics; real code
    goes through {!Memory.apply}, which also logs the step. *)

type t

val create : Value.t -> t

val value : t -> Value.t
val lock_holder : t -> int option
val locked : t -> bool

val reservations : t -> int list
(** The pids holding a load-linked reservation, ascending. *)

val apply : t -> Primitive.t -> Value.t * bool
(** [apply t prim] atomically applies [prim] and returns
    [(response, changed)], where [changed] reports whether any component
    of the state mutated.  Writes, successful CASes, fetch&adds and
    successful SCs invalidate outstanding LL reservations. *)

val apply_into : t -> Primitive.t -> changed:bool ref -> Value.t
(** Same step semantics as {!apply}, but the changed flag is written
    through the caller's scratch ref instead of a fresh pair — the
    allocation-free form {!Memory.apply} uses per step. *)

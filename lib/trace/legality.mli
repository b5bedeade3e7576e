(** Legality of complete sequential histories (Section 3).

    Transaction T is legal in a sequential history H if every x.read()
    returning v satisfies: (i) if T wrote x before the read, v is the
    argument of the last such write; otherwise (ii) if a committed
    transaction preceding T wrote x, v is the argument of the last such
    write in H; otherwise (iii) v is the initial value of x. *)

open Tm_base

type violation = {
  tid : Tid.t;
  item : Item.t;
  got : Value.t;
  expected : Value.t;
}

val check :
  ?initial:(Item.t -> Value.t) -> History.t -> (unit, violation) result
(** [check h] checks legality of the sequential history [h] ([initial]
    defaults to the paper's 0 for every item).
    @raise Invalid_argument if [h] is not sequential. *)

val legal : ?initial:(Item.t -> Value.t) -> History.t -> bool

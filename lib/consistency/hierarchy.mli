(** The implication lattice between consistency conditions, as asserted by
    the paper and as holding for these checkers:

    opacity => strict serializability => serializability => causal
    serializability => processor consistency => pram; processor
    consistency => weak adaptive; strict serializability => snapshot
    isolation => weak adaptive; snapshot isolation => snapshot isolation
    (execution intervals).

    The edges themselves are {!Checkers.edges}. *)

open Tm_trace

type violation = { stronger : string; weaker : string; history : History.t }

val check_history : ?budget:int -> History.t -> violation list
(** Violated edges on one history, judged on the full {!Checkers.matrix}:
    the stronger checker accepted but the weaker one refuted (budget
    exhaustion on either side never counts). *)

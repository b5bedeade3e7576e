(** The weaker conflict-graph variants of disjoint-access-parallelism
    (Section 2): contention is allowed between transactions connected by a
    conflict path in the execution — bounded by [d] for the d-local
    contention property [Afek et al.], unbounded for the variant of
    [Attiya-Hillel-Milani 09] and [Perelman-Fan-Keidar 10]. *)

open Tm_base

type violation = {
  t1 : Tid.t;
  t2 : Tid.t;
  objects : Oid.t list;
  distance : int option;  (** conflict-graph distance, None = disconnected *)
}

val violations :
  ?d:int ->
  data_sets:Conflict.data_sets ->
  Access_log.window ->
  violation list

val holds :
  ?d:int -> data_sets:Conflict.data_sets -> Access_log.window -> bool

(** Strict disjoint-access-parallelism (Section 3): two transactions
    contend on a base object only if their data sets intersect.  The
    checker is per-execution — one violation refutes strict DAP of the
    implementation. *)

open Tm_base

type violation = { t1 : Tid.t; t2 : Tid.t; objects : Oid.t list }

val pp_violation :
  name_of:(Oid.t -> string) -> Format.formatter -> violation -> unit

val violations :
  data_sets:Conflict.data_sets -> Access_log.window -> violation list

val holds : data_sets:Conflict.data_sets -> Access_log.window -> bool

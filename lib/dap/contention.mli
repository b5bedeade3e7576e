(** Contention on base objects (Section 3): alpha|T1 and alpha|T2 contend
    on o if both contain a primitive on o and at least one is
    non-trivial. *)

open Tm_base

type access_summary = {
  tid : Tid.t;
  objects : bool Oid.Map.t;  (** oid -> applied a non-trivial primitive? *)
}

val summarize : Access_log.window -> access_summary list
(** Per-transaction footprints, sorted by [Tid.compare]; repeated
    [(Tid, Oid)] accesses collapse into one map entry, so the output is
    duplicate-free and deterministic across runs. *)

type contention = { t1 : Tid.t; t2 : Tid.t; objects : Oid.t list }

val all_contentions : Access_log.window -> contention list
(** Every contending pair of transactions in the window, ordered by
    [(t1, t2)] with [t1 < t2]. *)

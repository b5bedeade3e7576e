(** Shared assembly helpers for the checkers. *)

open Tm_base
open Tm_trace

val exists_com : History.t -> (Tid.Set.t -> Spec.verdict) -> Spec.verdict
(** Try every com(alpha) candidate; [Sat] as soon as one works;
    [Out_of_budget] if any candidate ran out and none satisfied. *)

val active_window : Blocks.txn -> int * int
(** Gap window spanning the active execution interval of a transaction. *)

val unbounded : History.t -> int * int

val realtime_prec :
  History.t -> Tid.t list -> (Tid.t -> int option) -> (int * int) list
(** Precedence pairs induced by the real-time order [<alpha]. *)

val program_order_prec :
  History.t ->
  Blocks.t ->
  Tid.t list ->
  (Tid.t -> int option) ->
  (int * int) list
(** Same-process program-order pairs (Def. 3.2 condition 1a). *)

val view_pids : Blocks.t -> Tid.t list -> int list
(** Processes executing at least one of the given transactions. *)

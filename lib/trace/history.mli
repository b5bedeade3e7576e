(** Histories (Section 3): sequences of invocations and responses
    performed by transactions, with the derived notions the paper's
    definitions are built on — well-formedness, H|T, transaction status,
    the real-time precedence relation [<alpha], and the read/write
    projections used by the consistency conditions. *)

open Tm_base

type t
(** A history.  The per-transaction queries below ({!per_txn}, {!txns},
    {!status}, {!positions_of_txn}, {!begin_pos}, {!precedes}, {!reads},
    {!writes} and those built on them) are answered from an index of
    positions that the first such query builds in one pass over the
    events; later queries neither walk nor copy the history. *)

val of_list : Event.t list -> t

val init : int -> (int -> Event.t) -> t
(** [init n f] is the history of events [f 0 .. f (n - 1)]. *)

val to_list : t -> Event.t list
val events : t -> Event.t list
val length : t -> int

val get : t -> int -> Event.t
(** [get t i] is the event at position [i] (0-based). *)

val is_empty : t -> bool
val append : t -> Event.t list -> t

(** {1 Projections} *)

val per_txn : t -> Tid.t -> Event.t list
(** The paper's H|T: the longest subsequence of events of one
    transaction. *)

val txns : t -> Tid.t list
(** Transactions appearing in the history, ordered by first event. *)

val txn_count : t -> int
(** [List.length (txns t)]. *)

val pid_of_txn : t -> Tid.t -> int option

(** {1 Status} *)

type status = Committed | Aborted | Commit_pending | Live

val pp_status : Format.formatter -> status -> unit
val show_status : status -> string
val equal_status : status -> status -> bool

val status : t -> Tid.t -> status
val committed : t -> Tid.t -> bool
val aborted : t -> Tid.t -> bool
val commit_pending : t -> Tid.t -> bool

val live : t -> Tid.t -> bool
(** Live in the paper's sense: neither committed nor aborted — so
    commit-pending transactions are live. *)

val complete : t -> bool
(** No live transactions. *)

(** {1 Positions and ordering} *)

val positions_of_txn : t -> Tid.t -> (int * int) option
(** First and last event positions of a transaction — the event-axis
    rendering of its active execution interval. *)

val first_pos : t -> Tid.t -> int option
val last_pos : t -> Tid.t -> int option
val begin_pos : t -> Tid.t -> int option

val begin_order : t -> Tid.t list
(** Transactions ordered by begin invocation — the axis on which
    consistency partitions (Def. 3.3) are built. *)

val precedes : t -> Tid.t -> Tid.t -> bool
(** The paper's T1 [<alpha] T2: T1 is not live and its completion event
    precedes T2's begin invocation. *)

val concurrent : t -> Tid.t -> Tid.t -> bool
val sequential : t -> bool

(** {1 Read/write projections} *)

type read = {
  item : Item.t;
  value : Value.t;
  global : bool;
      (** true iff the transaction had not written the item before
          invoking the read (Section 3, "Consistency") *)
  pos : int;  (** position of the response event *)
}

val reads : t -> Tid.t -> read list
(** Successful reads in order, classified global/local. *)

val global_reads : t -> Tid.t -> (Item.t * Value.t) list

val writes : t -> Tid.t -> (Item.t * Value.t) list
(** Successful writes in order — the paper's T|write. *)

val write_set : t -> Tid.t -> Item.Set.t
val read_set : t -> Tid.t -> Item.Set.t

val writes_to_common_item : t -> Tid.t -> Tid.t -> bool
(** Do both transactions successfully write some common data item?
    (Conditions 1b / 2 of Definitions 3.2 / 3.3.) *)

(** {1 Well-formedness} *)

val well_formed : t -> (unit, string) result
(** Checks the paper's conditions (i)-(vi) per transaction, plus that no
    process interleaves two of its own transactions. *)

(** {1 Restriction} *)

val restrict : t -> Tid.Set.t -> t
(** Keep only the events of the given transactions — used to shrink
    checker inputs to the relevant core. *)

val truncate_at : t -> int -> t
(** [truncate_at t k] — the crash-truncated prefix: events timestamped at
    or before global step [k], i.e. the history a crash at step [k]
    leaves behind.  Operations whose response falls after the cut become
    pending; transactions mid-commit become commit-pending. *)

val pp : Format.formatter -> t -> unit

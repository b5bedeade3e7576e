(** Static transactions (Section 3): the data items a transaction accesses
    are fixed and derivable from its code.  The PCL proof's T1..T7 are of
    exactly this shape — read a list of items, write a list of items,
    commit. *)

open Tm_base

type spec = {
  tid : Tid.t;
  pid : int;
  reads : Item.t list;
  writes : (Item.t * Value.t) list;
}

val data_set : spec -> Item.Set.t
(** D(T): the static data set (reads union writes). *)

val data_sets : spec list -> (Tid.t * Item.Set.t) list

type status = Committed | Aborted | Unstarted

type outcome = {
  mutable read_values : (Item.t * Value.t) list;  (** in read order *)
  mutable status : status;
}

val new_outcome : unit -> outcome
val read_value : outcome -> Item.t -> Value.t option

val program :
  Txn_api.handle ->
  spec ->
  outcomes:(Tid.t, outcome) Hashtbl.t ->
  unit ->
  unit
(** The process program executing the spec once (no retry — the paper's
    transactions run once and either commit or abort), writing its outcome
    into [outcomes]. *)

val items_of : spec list -> Item.t list

val setup :
  spec list ->
  Tm_intf.impl ->
  (Tid.t, outcome) Hashtbl.t ->
  Tm_runtime.Sim.setup
(** Each spec as its own process, over one instance holding every item of
    the specs (computed once per [setup specs]); every world built from
    the setup writes into the table. *)

(** Conflicts and conflict graphs (Sections 2-3).

    Two (static) transactions conflict if their data sets intersect; the
    conflict graph of an execution has its transactions as nodes and
    conflict edges.  The weaker DAP variants allow contention between
    transactions connected by a path. *)

open Tm_base

type data_sets = (Tid.t * Item.Set.t) list
(** D(T) per transaction — derivable from static transaction code, or
    collected from the accesses actually performed. *)

val data_set : data_sets -> Tid.t -> Item.Set.t
(** [data_set ds] builds a table of [ds] once (the first binding of a
    transaction wins, as with [List.assoc]) and answers every lookup from
    it, so apply it to [ds] once, outside the loop that looks up. *)

val of_history : Tm_trace.History.t -> data_sets
(** Per transaction of the history, in order of first event, the items
    it invoked a read or a write on, whether the operation was answered
    or aborted — a superset of its successful reads and writes. *)

val conflict : data_sets -> Tid.t -> Tid.t -> bool
(** [conflict ds t1 t2]: distinct transactions with intersecting data
    sets.  Staged like {!data_set}. *)

type graph = {
  nodes : Tid.t list;
  adj : (Tid.t, Tid.t list) Hashtbl.t;
  components : (Tid.t, int) Hashtbl.t Lazy.t;
      (** each node's connected component, labelled on first demand *)
}

val graph : data_sets -> Tid.t list -> graph
val neighbours : graph -> Tid.t -> Tid.t list

val distance : graph -> Tid.t -> Tid.t -> int option
(** Length in edges of a shortest conflict path, [Some 0] for equal
    transactions, [None] if disconnected. *)

val connected : graph -> Tid.t -> Tid.t -> bool
(** [distance g t1 t2 <> None], answered from the component labels: the
    first query labels the whole graph once. *)

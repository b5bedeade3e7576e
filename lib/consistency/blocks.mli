(** Per-transaction data extracted from a history, and the block semantics
    shared by every checker.

    A serialization point stands for a block of operations inserted into
    the induced sequential history H_sigma:
    - [Greads tid] — T_gr, the transaction's global reads (Defs 3.1/3.3);
    - [Wblock tid] — T_w, its writes;
    - [Fused tid] — T_gr immediately followed by T_w (PC groups in
      Def. 3.3, where no point may separate them);
    - [Whole tid] — H|T as one atomic block (Def. 3.2, serializability);
    - [Whole_ghost tid] — H|T with reads checked but writes never
      installed (aborted/live transactions in the opacity checker).

    The semantics comes twice: {!info} and {!eval} define it over lists
    and a persistent map, and {!Witness.valid} re-checks every witness
    with them; {!table} compiles it once per check for the placement
    search. *)

open Tm_base
open Tm_trace

type op = Rd of Item.t * Value.t * bool (** global? *) | Wr of Item.t * Value.t

type txn_info = {
  tid : Tid.t;
  pid : int;
  status : History.status;
  greads : (Item.t * Value.t) list;
  writes : (Item.t * Value.t) list;
  write_set : Item.Set.t;
  ops : op list;  (** full successful-operation replay, in order *)
  first_pos : int;
  last_pos : int;
}

val info : History.t -> Tid.t -> txn_info

type block =
  | Greads of Tid.t
  | Wblock of Tid.t
  | Fused of Tid.t
  | Whole of Tid.t
  | Whole_ghost of Tid.t

val block_tid : block -> Tid.t
val pp_block : Format.formatter -> block -> unit

(** {1 Evaluation over a persistent committed-state map} *)

type state = Value.t Item.Map.t
(** Items absent from the map hold [Value.initial]. *)

val eval :
  focus:(Tid.t -> bool) -> (Tid.t -> txn_info) -> state -> block -> state option
(** [None] if a focused read is illegal, otherwise the state after the
    block.  A focused [Whole]/[Whole_ghost] block checks the global reads
    of H|T against the state and its local reads against the
    transaction's own earlier writes. *)

(** {1 The compiled table}

    Items and values are interned to small integers, each an index in
    order of first appearance; value id 0 is [Value.initial].  A
    transaction's reads and writes are flattened (item, value) id pairs. *)

type txn = {
  tid : Tid.t;
  pid : int;
  status : History.status;
  first_pos : int;
  last_pos : int;
  greads : int array;  (** T_gr, in order *)
  writes : int array;
      (** T_w's final writes: the last write to an item wins, as
          [eval] applies them *)
  replay_legal : bool;
      (** every read of H|T after the transaction's own write to its item
          returns that write's value.  In a well-formed history the other
          reads of H|T are exactly [greads], so a focused [Whole] block is
          legal iff this holds and [greads] match the state. *)
}

(** The scratch of one placement search ({!Placement.solve} owns its
    contents): per point, its window, the reads it checks and the writes
    it installs, whether it is placed, its successors and its count of
    unplaced predecessors; the current order; the committed state as one
    value id per item, and its undo trail. *)
type frame = {
  lo : int array;
  hi : int array;
  checks : int array array;
  installs : int array array;
  placed : Bytes.t;
  unplaced_preds : int array;
  succs : int list array;
  order : int array;
  values : int array;
  mutable trail : int array;
}

type t = {
  txns : txn array;  (** in the history's transaction order *)
  items : int;  (** how many items are interned *)
  mutable frames : frame list;
      (** frames no search is using; nested searches ({!Views}) each take
          their own *)
}
(** A history compiled for one check.  Build it per check call: nothing
    in it outlives the call. *)

val table : History.t -> t

val txn : t -> Tid.t -> txn
(** @raise Invalid_argument if the transaction is not in the history. *)

val unreadable : int array
(** A read no state satisfies: the checks of a focused [Whole] block
    whose transaction fails [replay_legal]. *)

val write_common : txn -> txn -> bool
(** Do the two transactions write a common item? *)

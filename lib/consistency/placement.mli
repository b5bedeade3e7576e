(** The serialization-point placement solver.

    A {e point} carries a {!Blocks.block} and a window of admissible
    positions.  Positions are inter-event gaps of the history: gap [g]
    lies between event [g-1] and event [g]; several points may share a gap
    in any relative order.  The discretization is lossless because the
    paper's definitions only constrain points relative to event positions
    (active execution intervals) and to each other.

    {!solve} enumerates, by depth-first search with on-the-fly legality
    checking, the total orders of the points that respect every window
    (left-to-right, the running maximum of the lows must never exceed a
    point's high), respect the precedence pairs, and induce a legal
    sequential history for the focused transactions.

    The search runs on the check's compiled {!Blocks.table}, in one of its
    frames.  Its order is fixed: every node spends one unit of budget,
    checked first, then scans for an unplaced point that can no longer
    fit, then tries the candidates in index order.  Evaluating a block is
    not a node. *)

type point = { block : Blocks.block; lo : int; hi : int }

type problem = {
  points : point array;
  prec : (int * int) list;  (** (a, b): point a before point b *)
  focus : Blocks.txn -> bool;  (** whose reads must be legal *)
}

type outcome = Exhausted | Stopped | Budget_exceeded

val solve :
  budget:int ref ->
  Blocks.t ->
  problem ->
  on_solution:(int list -> bool) ->
  outcome
(** Every complete order found (as a list of point indices) is passed to
    [on_solution]; returning [true] stops the search.  [budget] is a
    shared node counter decremented at every search node.  Every block's
    transaction must be in the table's history.
    @raise Invalid_argument on a precedence index out of range. *)

val first_solution :
  budget:int ref -> Blocks.t -> problem -> int list option * outcome

val satisfiable : budget:int ref -> Blocks.t -> problem -> Spec.verdict

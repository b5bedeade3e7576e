(* The serialization-point placement solver.

   A *point* carries a block and a window of admissible positions.
   Positions are inter-event gaps of the history: gap g lies between event
   g-1 and event g, so a window [lo, hi] means "anywhere inside that span";
   several points may share a gap in any chosen relative order.  This
   discretization is lossless: the definitions only constrain points
   relative to event positions (active execution intervals) and to each
   other.

   [solve] enumerates, by depth-first search with on-the-fly legality
   checking, the total orders of the points that
     - respect every window (the order must be realizable: scanning the
       sequence left to right with floor = max of lows seen so far must
       never exceed a point's high),
     - respect the given precedence pairs,
     - induce a legal sequential history for the focused transactions.

   Every complete order found is passed to [on_solution]; returning [true]
   stops the search.

   The search runs on the check's compiled table (Blocks.table), in a
   frame of arrays taken from it: a point's block becomes the reads it
   checks and the writes it installs, the committed state is one value id
   per item with an undo trail, and a point's precedence is the count of
   its unplaced predecessors.  The search itself is fixed: at every node
   one budget decrement, checked first; then the dead-end scan; then the
   candidates in index order.  Evaluating a block is not a node. *)

type point = { block : Blocks.block; lo : int; hi : int }

type problem = {
  points : point array;
  prec : (int * int) list;  (** (a, b): point a before point b *)
  focus : Blocks.txn -> bool;
}

type outcome = Exhausted | Stopped | Budget_exceeded

(* A frame no search is using, with room for [n] points: the first free
   one, or a new one if that is too small. *)
let take (tbl : Blocks.t) ~n : Blocks.frame =
  match tbl.Blocks.frames with
  | f :: rest when Array.length f.Blocks.lo >= n ->
      tbl.Blocks.frames <- rest;
      f
  | _ ->
      let n = max n (2 * Array.length tbl.Blocks.txns) in
      {
        Blocks.lo = Array.make n 0;
        hi = Array.make n 0;
        checks = Array.make n [||];
        installs = Array.make n [||];
        placed = Bytes.make n '\000';
        unplaced_preds = Array.make n 0;
        succs = Array.make n [];
        order = Array.make n 0;
        values = Array.make (max 1 tbl.Blocks.items) 0;
        trail = [||];
      }

(* Fill the frame for [p]: each point's window, the reads it checks and
   the writes it installs, its successors and its count of unplaced
   predecessors; and a trail with room for every write installed. *)
let load (tbl : Blocks.t) (f : Blocks.frame) (p : problem) ~n =
  let writes = ref 0 in
  for i = 0 to n - 1 do
    let pt = p.points.(i) in
    let tx = Blocks.txn tbl (Blocks.block_tid pt.block) in
    let focus = p.focus tx in
    let checks =
      match pt.block with
      | Blocks.Wblock _ -> [||]
      | (Blocks.Greads _ | Blocks.Fused _) when focus -> tx.Blocks.greads
      | (Blocks.Whole _ | Blocks.Whole_ghost _) when focus ->
          if tx.Blocks.replay_legal then tx.Blocks.greads else Blocks.unreadable
      | _ -> [||]
    and installs =
      match pt.block with
      | Blocks.Wblock _ | Blocks.Fused _ | Blocks.Whole _ -> tx.Blocks.writes
      | Blocks.Greads _ | Blocks.Whole_ghost _ -> [||]
    in
    f.Blocks.lo.(i) <- pt.lo;
    f.hi.(i) <- pt.hi;
    f.checks.(i) <- checks;
    f.installs.(i) <- installs;
    Bytes.set f.placed i '\000';
    f.unplaced_preds.(i) <- 0;
    f.succs.(i) <- [];
    writes := !writes + (Array.length installs / 2)
  done;
  List.iter
    (fun (a, b) ->
      if a < 0 || a >= n || b < 0 || b >= n then
        invalid_arg "Placement.solve: precedence index out of range";
      f.succs.(a) <- b :: f.succs.(a);
      f.unplaced_preds.(b) <- f.unplaced_preds.(b) + 1)
    p.prec;
  Array.fill f.values 0 (Array.length f.values) 0;
  if Array.length f.trail < !writes then f.trail <- Array.make !writes 0

(** [solve ~budget tbl problem ~on_solution] — [budget] is a shared node
    counter decremented at every search node. *)
let solve ~(budget : int ref) (tbl : Blocks.t) (p : problem)
    ~(on_solution : int list -> bool) : outcome =
  let n = Array.length p.points in
  let f = take tbl ~n in
  let give () = tbl.Blocks.frames <- f :: tbl.Blocks.frames in
  match load tbl f p ~n with
  | exception e ->
      give ();
      raise e
  | () -> (
      let lo = f.lo and hi = f.hi and checks = f.checks
      and installs = f.installs and placed = f.placed
      and preds = f.unplaced_preds and succs = f.succs and order = f.order
      and values = f.values and trail = f.trail in
      let rec legal rd k =
        k >= Array.length rd
        || (values.(rd.(k)) = rd.(k + 1) && legal rd (k + 2))
      in
      let rec shift d = function
        | [] -> ()
        | s :: rest ->
            preds.(s) <- preds.(s) + d;
            shift d rest
      in
      let rec dead_end i floor =
        i < n
        && ((Bytes.unsafe_get placed i = '\000' && hi.(i) < floor)
           || dead_end (i + 1) floor)
      in
      let exception Stop in
      let exception Out_of_budget in
      let rec dfs depth floor top =
        if !budget <= 0 then raise Out_of_budget;
        decr budget;
        if depth = n then begin
          if on_solution (List.init n (Array.get order)) then raise Stop
        end
        else if not (dead_end 0 floor) then
          for i = 0 to n - 1 do
            if
              Bytes.unsafe_get placed i = '\000'
              && preds.(i) = 0
              && hi.(i) >= floor
              && legal checks.(i) 0
            then begin
              let wr = installs.(i) in
              let m = Array.length wr / 2 in
              for k = 0 to m - 1 do
                let x = wr.(2 * k) in
                trail.(top + k) <- values.(x);
                values.(x) <- wr.((2 * k) + 1)
              done;
              Bytes.unsafe_set placed i '\001';
              shift (-1) succs.(i);
              order.(depth) <- i;
              dfs (depth + 1) (max floor lo.(i)) (top + m);
              shift 1 succs.(i);
              Bytes.unsafe_set placed i '\000';
              for k = 0 to m - 1 do
                values.(wr.(2 * k)) <- trail.(top + k)
              done
            end
          done
      in
      match dfs 0 0 0 with
      | () ->
          give ();
          Exhausted
      | exception Stop ->
          give ();
          Stopped
      | exception Out_of_budget ->
          give ();
          Budget_exceeded
      | exception e ->
          give ();
          raise e)

(** First solution, if any. *)
let first_solution ~budget tbl (p : problem) : int list option * outcome =
  let found = ref None in
  let outcome =
    solve ~budget tbl p ~on_solution:(fun order ->
        found := Some order;
        true)
  in
  (!found, outcome)

let satisfiable ~budget tbl (p : problem) : Spec.verdict =
  match first_solution ~budget tbl p with
  | Some _, _ -> Spec.Sat
  | None, Exhausted -> Spec.Unsat
  | None, (Budget_exceeded | Stopped) -> Spec.Out_of_budget

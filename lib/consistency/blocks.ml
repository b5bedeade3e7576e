(* Per-transaction data extracted from a history, and the "block" semantics
   shared by every checker.

   A serialization point stands for a block of operations inserted into the
   induced sequential history H_sigma:

   - [Greads tid]      — T_gr : the transaction's global reads (Def. 3.1/3.3)
   - [Wblock tid]      — T_w  : the transaction's writes
   - [Fused tid]       — T_gr immediately followed by T_w (PC groups in
                         Def. 3.3, where no point may separate them)
   - [Whole tid]       — H|T as one atomic block (Defs 3.2, serializability)
   - [Whole_ghost tid] — H|T with reads checked but writes never installed
                         (aborted/live transactions in the opacity checker)

   The semantics comes twice.  [info] and [eval] are its definition, over
   lists and a persistent map of item names; Witness.valid re-checks every
   witness with them.  [table] compiles the same semantics once per check
   for the placement search: items and values become small integers, a
   block becomes an array of reads to check and an array of writes to
   apply, and the committed state becomes one array. *)

open Tm_base
open Tm_trace

type op = Rd of Item.t * Value.t * bool (* global? *) | Wr of Item.t * Value.t

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

let info (h : History.t) (tid : Tid.t) : txn_info =
  let pid = Option.value ~default:(-1) (History.pid_of_txn h tid) in
  let reads = History.reads h tid in
  let writes = History.writes h tid in
  (* interleave reads and writes by per-txn event position to build ops *)
  let write_ops =
    (* position of each successful write: recompute by scanning *)
    let rec scan i evs acc =
      match evs with
      | [] -> List.rev acc
      | Event.Resp { op = Event.Write (x, v); resp = Event.R_ok; _ } :: rest
        ->
          scan (i + 1) rest ((i, Wr (x, v)) :: acc)
      | _ :: rest -> scan (i + 1) rest acc
    in
    (* positions here are per-txn indices; only relative order matters and
       per-txn event order equals history order *)
    scan 0 (History.per_txn h tid) []
  in
  let read_ops =
    let rec scan i evs acc =
      match evs with
      | [] -> List.rev acc
      | Event.Resp { op = Event.Read _; resp = Event.R_value _; _ } :: rest
        ->
          scan (i + 1) rest (i :: acc)
      | _ :: rest -> scan (i + 1) rest acc
    in
    let positions = scan 0 (History.per_txn h tid) [] in
    List.map2
      (fun pos (r : History.read) -> (pos, Rd (r.item, r.value, r.global)))
      positions reads
  in
  let ops =
    List.map snd
      (List.sort (fun (a, _) (b, _) -> compare a b) (read_ops @ write_ops))
  in
  let first_pos, last_pos =
    match History.positions_of_txn h tid with
    | Some (f, l) -> (f, l)
    | None -> (0, 0)
  in
  {
    tid;
    pid;
    status = History.status h tid;
    greads = List.map (fun (r : History.read) -> (r.item, r.value))
               (List.filter (fun (r : History.read) -> r.global) reads);
    writes;
    write_set = History.write_set h tid;
    ops;
    first_pos;
    last_pos;
  }

type block =
  | Greads of Tid.t
  | Wblock of Tid.t
  | Fused of Tid.t
  | Whole of Tid.t
  | Whole_ghost of Tid.t

let block_tid = function
  | Greads t | Wblock t | Fused t | Whole t | Whole_ghost t -> t

let pp_block ppf = function
  | Greads t -> Fmt.pf ppf "%s.gr" (Tid.name t)
  | Wblock t -> Fmt.pf ppf "%s.w" (Tid.name t)
  | Fused t -> Fmt.pf ppf "%s.grw" (Tid.name t)
  | Whole t -> Fmt.pf ppf "%s" (Tid.name t)
  | Whole_ghost t -> Fmt.pf ppf "%s.ghost" (Tid.name t)

(* ------------------------------------------------------------------ *)
(* Block evaluation over a persistent committed-state map; every item
   starts at Value.initial *)

type state = Value.t Item.Map.t

let lookup (state : state) x =
  match Item.Map.find_opt x state with Some v -> v | None -> Value.initial

let apply_writes (state : state) writes =
  List.fold_left (fun st (x, v) -> Item.Map.add x v st) state writes

let check_greads (state : state) greads =
  List.for_all (fun (x, v) -> Value.equal v (lookup state x)) greads

(** Replay H|T against [state]: global reads check the committed state,
    local reads check the transaction's own overlay.  Returns the updated
    overlay (the transaction's writes) on success. *)
let replay_whole ~check (state : state) (ops : op list) :
    (Item.t * Value.t) list option =
  (* the overlay keeps one binding per item, so application order of the
     returned list is irrelevant *)
  let rec go overlay = function
    | [] -> Some overlay
    | Rd (x, v, _global) :: rest ->
        let expected =
          match List.assoc_opt x overlay with
          | Some w -> w
          | None -> lookup state x
        in
        if (not check) || Value.equal v expected then go overlay rest
        else None
    | Wr (x, v) :: rest ->
        go ((x, v) :: List.remove_assoc x overlay) rest
  in
  go [] ops

(** [eval ~focus info_of state block] — [None] if a checked read is
    illegal, otherwise the state after the block. *)
let eval ~(focus : Tid.t -> bool) (info_of : Tid.t -> txn_info)
    (state : state) (block : block) : state option =
  match block with
  | Greads tid ->
      let i = info_of tid in
      if (not (focus tid)) || check_greads state i.greads then Some state
      else None
  | Wblock tid -> Some (apply_writes state (info_of tid).writes)
  | Fused tid ->
      let i = info_of tid in
      if (not (focus tid)) || check_greads state i.greads then
        Some (apply_writes state i.writes)
      else None
  | Whole tid -> (
      let i = info_of tid in
      match replay_whole ~check:(focus tid) state i.ops with
      | Some writes -> Some (apply_writes state writes)
      | None -> None)
  | Whole_ghost tid -> (
      let i = info_of tid in
      match replay_whole ~check:(focus tid) state i.ops with
      | Some _ -> Some state
      | None -> None)

(* ------------------------------------------------------------------ *)
(* The compiled table *)

type txn = {
  tid : Tid.t;
  pid : int;
  status : History.status;
  first_pos : int;
  last_pos : int;
  greads : int array;
  writes : int array;
  replay_legal : bool;
}

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

type t = { txns : txn array; items : int; mutable frames : frame list }

(* value ids are never negative, so no state satisfies this read *)
let unreadable = [| 0; -1 |]

(* The distinct elements met so far, newest first: an element's id is
   its rank in order of first meeting.  Histories name few items and
   values, so a linear search beats hashing. *)
type 'a pool = { mutable elts : 'a list; mutable used : int }

let rec find equal x id = function
  | [] -> -1
  | y :: rest -> if equal y x then id else find equal x (id - 1) rest

let intern equal pool x =
  match find equal x (pool.used - 1) pool.elts with
  | -1 ->
      pool.elts <- x :: pool.elts;
      pool.used <- pool.used + 1;
      pool.used - 1
  | id -> id

(* The value of [tid]'s last write to [x] that returned ok before position
   [pos], searching back to [first]. *)
let rec own_write h tid x ~first pos =
  if pos < first then None
  else
    match History.get h pos with
    | Event.Resp { tid = t; op = Event.Write (y, v); resp = Event.R_ok; _ }
      when Tid.equal t tid && Item.equal x y ->
        Some v
    | _ -> own_write h tid x ~first (pos - 1)

(* The index of item [x]'s pair among the first [len] entries of [buf],
   else [len] *)
let rec slot buf x len k =
  if k = len || buf.(k) = x then k else slot buf x len (k + 2)

(* One transaction's compiled blocks, from the reads and writes the
   history's index already holds.  A read is global exactly when no write
   of the transaction to its item came before it, so in a well-formed
   history the replay of H|T reads the state at its global reads and
   nowhere else; its other reads see the transaction's own last write, and
   are decided here, once. *)
let compile h ~items ~values tid : txn =
  let first_pos, last_pos =
    match History.positions_of_txn h tid with
    | Some (f, l) -> (f, l)
    | None -> (0, 0)
  in
  let reads = History.reads h tid in
  let n_global =
    List.fold_left
      (fun n (r : History.read) -> if r.global then n + 1 else n)
      0 reads
  in
  let greads = Array.make (2 * n_global) 0 in
  let replay_legal = ref true in
  ignore
    (List.fold_left
       (fun k (r : History.read) ->
         if r.global then begin
           greads.(k) <- intern Item.equal items r.item;
           greads.(k + 1) <- intern Value.equal values r.value;
           k + 2
         end
         else begin
           (match own_write h tid r.item ~first:first_pos (r.pos - 1) with
           | Some v when not (Value.equal v r.value) -> replay_legal := false
           | _ -> ());
           k
         end)
       0 reads);
  (* the final writes: the last write to an item wins, as [apply_writes]
     folds them *)
  let ws = History.writes h tid in
  let buf = Array.make (2 * List.length ws) 0 in
  let len =
    List.fold_left
      (fun len (x, v) ->
        let x = intern Item.equal items x and v = intern Value.equal values v in
        let k = slot buf x len 0 in
        buf.(k) <- x;
        buf.(k + 1) <- v;
        if k = len then len + 2 else len)
      0 ws
  in
  {
    tid;
    pid = Option.value ~default:(-1) (History.pid_of_txn h tid);
    status = History.status h tid;
    first_pos;
    last_pos;
    greads;
    writes = (if len = Array.length buf then buf else Array.sub buf 0 len);
    replay_legal = !replay_legal;
  }

(** Compile every transaction of a history, interning its items and
    values; value id 0 is Value.initial, every item's starting value. *)
let table (h : History.t) : t =
  let items = { elts = []; used = 0 }
  and values = { elts = [ Value.initial ]; used = 1 } in
  let txns =
    Array.of_list (List.map (compile h ~items ~values) (History.txns h))
  in
  { txns; items = items.used; frames = [] }

let txn (t : t) (tid : Tid.t) : txn =
  let rec find i =
    if i = Array.length t.txns then
      invalid_arg "Blocks.txn: unknown transaction"
    else if Tid.equal t.txns.(i).tid tid then t.txns.(i)
    else find (i + 1)
  in
  find 0

(** Do two transactions write a common item? *)
let write_common (a : txn) (b : txn) =
  let rec mem x k =
    k < Array.length b.writes && (b.writes.(k) = x || mem x (k + 2))
  in
  let rec go k =
    k < Array.length a.writes && (mem a.writes.(k) 0 || go (k + 2))
  in
  go 0

(* Histories (Section 3): sequences of invocations and responses performed
   by transactions, with the derived notions used throughout the paper —
   well-formedness, H|T, transaction status, the precedence relation, and
   the read/write projections that the consistency definitions build on. *)

open Tm_base

type status = Committed | Aborted | Commit_pending | Live
[@@deriving show { with_path = false }, eq]

type read = {
  item : Item.t;
  value : Value.t;
  global : bool;
      (** true iff the transaction had not written the item before invoking
          the read (Section 3, "Consistency") *)
  pos : int;  (** position of the response event in the history *)
}

(* The per-transaction index: one pass over the events gathers every
   projection the per-transaction queries answer, and no event is copied.
   H|T is a chain of positions, as in the access log's per-transaction
   ring: [prev.(i)] is the position of the previous event of event [i]'s
   transaction (-1 at the front), walked back from [last].  Reads and
   writes are the records the queries hand out, built newest first and
   reversed once the pass is over. *)
type txn = {
  pid : int;  (** of the transaction's first event *)
  first : int;
  mutable last : int;
  mutable begin_at : int;  (** the first Begin invocation; -1 if none *)
  mutable status : status;
  mutable reads : read list;
  mutable writes : (Item.t * Value.t) list;
}

(* What the pass tracks per transaction to classify reads and pair write
   responses; dropped once the index is built. *)
type scratch = {
  mutable written : Item.Set.t;  (** items whose write was invoked so far *)
  mutable pending : (Item.t * Value.t) option;
      (** the latest write invocation not yet answered ok *)
}

module Tbl = Hashtbl.Make (struct
  type t = Tid.t

  let equal = Tid.equal
  let hash = Hashtbl.hash
end)

type index = {
  order : Tid.t list;  (** by first event *)
  by_tid : txn Tbl.t;
  prev : int array;
}

(* Status a transaction is left in by its last event. *)
let status_after = function
  | Event.Resp { resp = Event.R_committed; _ } -> Committed
  | Event.Resp { resp = Event.R_aborted; _ } -> Aborted
  | Event.Inv { op = Event.Try_commit; _ } -> Commit_pending
  | _ -> Live

let build_index events =
  let prev = Array.make (Array.length events) (-1) in
  let work = Tbl.create 16 in
  let order = ref [] in
  Array.iteri
    (fun i e ->
      let tid = Event.tid e in
      let x, sc =
        match Tbl.find_opt work tid with
        | Some xs -> xs
        | None ->
            let xs =
              ( {
                  pid = Event.pid e;
                  first = i;
                  last = -1;
                  begin_at = -1;
                  status = Live;
                  reads = [];
                  writes = [];
                },
                { written = Item.Set.empty; pending = None } )
            in
            Tbl.add work tid xs;
            order := tid :: !order;
            xs
      in
      prev.(i) <- x.last;
      x.last <- i;
      match e with
      | Event.Inv { op = Event.Begin; _ } ->
          if x.begin_at < 0 then x.begin_at <- i
      | Event.Inv { op = Event.Write (item, v); _ } ->
          sc.written <- Item.Set.add item sc.written;
          sc.pending <- Some (item, v)
      | Event.Resp { op = Event.Read item; resp = Event.R_value value; _ } ->
          let global = not (Item.Set.mem item sc.written) in
          x.reads <- { item; value; global; pos = i } :: x.reads
      | Event.Resp { op = Event.Write _; resp = Event.R_ok; _ } -> (
          match sc.pending with
          | Some w ->
              x.writes <- w :: x.writes;
              sc.pending <- None
          | None -> ())
      | _ -> ())
    events;
  let by_tid = Tbl.create (Tbl.length work) in
  Tbl.iter
    (fun tid (x, _) ->
      x.status <- status_after events.(x.last);
      x.reads <- List.rev x.reads;
      x.writes <- List.rev x.writes;
      Tbl.add by_tid tid x)
    work;
  { order = List.rev !order; by_tid; prev }

(* [index] is forced by the first per-transaction query; the events of a
   history are immutable, so it never goes stale. *)
type t = { events : Event.t array; index : index Lazy.t }

let of_array events = { events; index = lazy (build_index events) }
let of_list events = of_array (Array.of_list events)
let init n f = of_array (Array.init n f)
let to_list t = Array.to_list t.events
let events = to_list
let length t = Array.length t.events
let get t i = t.events.(i)
let is_empty t = Array.length t.events = 0
let append t evs = of_array (Array.append t.events (Array.of_list evs))
let index t = Lazy.force t.index
let find t tid = Tbl.find_opt (index t).by_tid tid

(* ------------------------------------------------------------------ *)
(* Projections *)

(** [per_txn t tid] is the paper's H|T: the longest subsequence consisting
    only of events of [tid]. *)
let per_txn t tid =
  let ix = index t in
  let rec walk i acc =
    if i < 0 then acc else walk ix.prev.(i) (get t i :: acc)
  in
  match Tbl.find_opt ix.by_tid tid with
  | Some x -> walk x.last []
  | None -> []

(** Transactions appearing in the history, ordered by first event. *)
let txns t = (index t).order

let txn_count t = Tbl.length (index t).by_tid
let pid_of_txn t tid = Option.map (fun x -> x.pid) (find t tid)

(* ------------------------------------------------------------------ *)
(* Status *)

let status t tid = match find t tid with Some x -> x.status | None -> Live
let committed t tid = equal_status (status t tid) Committed
let aborted t tid = equal_status (status t tid) Aborted
let commit_pending t tid = equal_status (status t tid) Commit_pending

(** Live in the paper's sense: neither committed nor aborted (so
    commit-pending transactions are live). *)
let live t tid =
  match status t tid with
  | Committed | Aborted -> false
  | Commit_pending | Live -> true

let complete t = List.for_all (fun tid -> not (live t tid)) (txns t)

(* ------------------------------------------------------------------ *)
(* Positions and ordering *)

let positions_of_txn t tid =
  Option.map (fun x -> (x.first, x.last)) (find t tid)

let first_pos t tid = Option.map fst (positions_of_txn t tid)
let last_pos t tid = Option.map snd (positions_of_txn t tid)

let begin_pos t tid =
  match find t tid with
  | Some x when x.begin_at >= 0 -> Some x.begin_at
  | _ -> None

(** Transactions ordered by the position of their begin invocation —
    the axis on which consistency partitions (Def. 3.3) are built. *)
let begin_order t =
  let tids = txns t in
  let key tid =
    match begin_pos t tid with Some i -> i | None -> max_int
  in
  List.sort (fun a b -> compare (key a) (key b)) tids

(** The paper's T1 <alpha T2: T1 is not live and its completion event
    precedes T2's begin invocation. *)
let precedes t t1 t2 =
  match (find t t1, find t t2) with
  | Some { status = Committed | Aborted; last; _ }, Some { begin_at; _ } ->
      last < begin_at (* false when T2 has no begin: begin_at = -1 *)
  | _ -> false

let concurrent t t1 t2 =
  (not (Tid.equal t1 t2)) && (not (precedes t t1 t2))
  && not (precedes t t2 t1)

let sequential t =
  let tids = txns t in
  let rec pairs = function
    | [] -> true
    | x :: rest ->
        List.for_all (fun y -> not (concurrent t x y)) rest && pairs rest
  in
  pairs tids

(* ------------------------------------------------------------------ *)
(* Read/write projections used by the consistency definitions *)

(** Successful reads of [tid] in order, classified global/local. *)
let reads t tid = match find t tid with Some x -> x.reads | None -> []

let global_reads t tid =
  List.filter_map
    (fun r -> if r.global then Some (r.item, r.value) else None)
    (reads t tid)

(** Successful writes of [tid] in order — the paper's T|write. *)
let writes t tid = match find t tid with Some x -> x.writes | None -> []

let write_set t tid = Item.set_of_list (List.map fst (writes t tid))

let read_set t tid =
  Item.set_of_list (List.map (fun r -> r.item) (reads t tid))

(** [writes_to_common_item t t1 t2]: do both transactions successfully write
    some common data item?  (Used by conditions 1b / 2 of Defs 3.2/3.3.) *)
let writes_to_common_item t t1 t2 =
  not (Item.Set.is_empty (Item.Set.inter (write_set t t1) (write_set t t2)))

(* ------------------------------------------------------------------ *)
(* Well-formedness (Section 3, conditions (i)-(vi)) *)

(* A transaction's checks, as the failure each reports, in the order
   they are judged: it starts with begin . ok; its invocations and
   responses alternate; each response answers its invocation's
   operation, with a response of the right type; nothing follows C_T or
   A_T.  Every check is local to an event and the events before it in
   its transaction's chain. *)
type wf_check =
  | Bad_start
  | Not_alternating
  | Bad_answer of string
  | After_end
  | Fine

let wf_rank = function
  | Bad_start -> 0
  | Not_alternating -> 1
  | Bad_answer _ -> 2
  | After_end -> 3
  | Fine -> 4

let wf_message = function
  | Bad_start -> "does not start with begin . ok"
  | Not_alternating -> "invocations and responses do not alternate"
  | Bad_answer msg -> msg
  | After_end -> "events after C_T/A_T"
  | Fine -> ""

let well_typed op resp =
  match (op, resp) with
  | Event.Begin, Event.R_ok -> true
  | Event.Read _, (Event.R_value _ | Event.R_aborted) -> true
  | Event.Write _, (Event.R_ok | Event.R_aborted) -> true
  | Event.Try_commit, (Event.R_committed | Event.R_aborted) -> true
  | Event.Abort_call, Event.R_aborted -> true
  | _ -> false

(* the first check event [i] fails, given its transaction's chain *)
let event_check events prev i =
  let e = events.(i) and p = prev.(i) in
  if p < 0 then
    match e with Event.Inv { op = Event.Begin; _ } -> Fine | _ -> Bad_start
  else
    let ep = events.(p) in
    let begin_ok =
      match e with
      | Event.Resp { op = Event.Begin; resp = Event.R_ok; _ } -> true
      | _ -> false
    in
    if prev.(p) < 0 && not begin_ok then Bad_start
    else if Event.is_inv e = Event.is_inv ep then Not_alternating
    else
      match (ep, e) with
      | Event.Inv { op; _ }, Event.Resp { op = op'; resp; _ } ->
          if not (Event.equal_op op op') then
            Bad_answer "response for a different operation"
          else if not (well_typed op resp) then Bad_answer "ill-typed response"
          else Fine
      | Event.Resp { resp = Event.R_committed | Event.R_aborted; _ }, _ ->
          After_end
      | _ -> Fine

(* The failure a transaction reports, walking its chain back from event
   [i]: the lowest rank, and of equal ranks the earliest event's. *)
let rec txn_check events prev i reported =
  if i < 0 then reported
  else
    let c = event_check events prev i in
    txn_check events prev prev.(i)
      (if wf_rank c <= wf_rank reported then c else reported)

let well_formed t : (unit, string) result =
  (* each process runs its transactions sequentially *)
  let process_sequential =
    let current = Hashtbl.create 8 in
    Array.for_all
      (fun e ->
        let pid = Event.pid e and tid = Event.tid e in
        match Hashtbl.find_opt current pid with
        | Some tid' when not (Tid.equal tid tid') ->
            if live t tid' then false
            else begin
              Hashtbl.replace current pid tid;
              true
            end
        | _ ->
            Hashtbl.replace current pid tid;
            true)
      t.events
  in
  if not process_sequential then
    Error "a process interleaves two of its own transactions"
  else
    let ix = index t in
    let rec first = function
      | [] -> Ok ()
      | tid :: rest -> (
          let x = Tbl.find ix.by_tid tid in
          match txn_check t.events ix.prev x.last Fine with
          | Fine -> first rest
          | c -> Error (Tid.name tid ^ ": " ^ wf_message c))
    in
    first ix.order

(* ------------------------------------------------------------------ *)
(* Restriction (used to shrink checker inputs) *)

(** Keep only the events of transactions in [keep]. *)
let restrict t keep =
  of_list
    (List.filter (fun e -> Tid.Set.mem (Event.tid e) keep) (to_list t))

(** The crash-truncated prefix: events timestamped at or before global
    step [k].  This is exactly the history a crash at step [k] leaves
    behind — operations whose response falls after the cut become
    pending, transactions whose commit response falls after it become
    commit-pending.  Safety conditions are prefix-closed, so a verdict
    that flips from Sat to Unsat under truncation exposes either a
    checker bug or an adaptivity artefact (see the crash-closure lint
    pass). *)
let truncate_at t k = of_list (List.filter (fun e -> Event.at e <= k) (to_list t))

let pp ppf t =
  Fmt.pf ppf "%a"
    Fmt.(list ~sep:(any "@\n") Event.pp_compact)
    (to_list t)

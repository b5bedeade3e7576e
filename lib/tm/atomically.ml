(* Dynamic transactions with automatic retry — the client-facing
   combinator a real TM exposes.

   [run handle ~pid body] executes [body] transactionally: on abort it
   retries with a fresh transaction identifier (as in the restart model of
   [Ellen et al. 12]: an aborted transaction re-executes as a new one).
   The body is an arbitrary function over the transaction — data items may
   be chosen dynamically from values read. *)

open Tm_base

exception Too_many_retries of { pid : int; attempts : int }

(** A body signals its own desire to abort by returning [Retry];
    [Done v] commits and yields [v]. *)
type 'a outcome = Done of 'a | Retry

(** [run handle ~pid ?max_attempts ?on_abort body] — run [body] until it
    commits.  Every attempt is a fresh transaction with a fresh id (ids
    must be unique within a history).  [on_abort ~attempt] is consulted
    after each abort — a contention manager hooks in here to back off
    (burning simulation steps) or to give up by returning [false].
    @raise Too_many_retries after [max_attempts] (default 64) aborts, or
    as soon as [on_abort] returns [false]. *)
let run (handle : Txn_api.handle) ~pid ?(max_attempts = 64)
    ?(on_abort = fun ~attempt:_ -> true) (body : Txn_api.txn -> 'a outcome) :
    'a =
  let give_up n = raise (Too_many_retries { pid; attempts = n }) in
  let retry n next =
    if not (on_abort ~attempt:n) then give_up n else next (n + 1)
  in
  let rec attempt n =
    if n > max_attempts then give_up n;
    let txn =
      handle.Txn_api.begin_txn ~pid ~tid:(handle.Txn_api.fresh_tid ())
    in
    match body txn with
    | exception Stdlib.Exit ->
        (* the body observed an abort response mid-way *)
        retry n attempt
    | Retry ->
        Txn_api.abort txn;
        retry n attempt
    | Done v -> (
        match Txn_api.try_commit txn with
        | Ok () -> v
        | Error () -> retry n attempt)
  in
  attempt 0

(** Read that turns an abort answer into a retry of the whole body. *)
let read (txn : Txn_api.txn) (x : Item.t) : Value.t =
  match Txn_api.read txn x with Ok v -> v | Error () -> raise Stdlib.Exit

(** Write that turns an abort answer into a retry of the whole body. *)
let write (txn : Txn_api.txn) (x : Item.t) (v : Value.t) : unit =
  match Txn_api.write txn x v with
  | Ok () -> ()
  | Error () -> raise Stdlib.Exit

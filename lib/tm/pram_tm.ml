(* The trivial unsynchronized TM — the paper's Section-5 witness that
   weakening *consistency* to PRAM makes the other two properties
   achievable: "allowing writes to the same data item to be viewed
   differently, as in PRAM consistency, makes it possible to trivially
   ensure strict disjoint-access-parallelism and wait-freedom ... without
   any synchronization between processes".

     Parallelism: strict DAP — vacuously, no shared base object is ever
                  accessed (zero contention).
     Consistency: PRAM only — each process sees its own committed writes
                  in order and never observes anyone else's.
     Liveness:    wait-free — every operation finishes in a bounded number
                  of (zero) shared steps and transactions never abort.

   All state is process-local: a per-process committed store. *)

open Tm_base

let name = "pram-local"
let describe = "strict DAP + wait-free, PRAM consistency only (weakens C)"

let contract =
  Tm_intf.{ strict_dap = true; condition = "pram";
            liveness = Wait_free }

type t = { stores : (int * Item.t, Value.t) Hashtbl.t }

let create (_ : Memory.t) ~items:(_ : Item.t list) =
  { stores = Hashtbl.create 64 }

type ctx = {
  t : t;
  pid : int;
  mutable wset : (Item.t * Value.t) list;
  mutable dead : bool;
}

let begin_txn t ~pid ~tid:(_ : Tid.t) = { t; pid; wset = []; dead = false }

let read c x =
  if c.dead then Error ()
  else
    match List.assoc_opt x c.wset with
    | Some v -> Ok v
    | None -> (
        match Hashtbl.find_opt c.t.stores (c.pid, x) with
        | Some v -> Ok v
        | None -> Ok Value.initial)

let write c x v =
  if c.dead then Error ()
  else begin
    c.wset <- (x, v) :: List.remove_assoc x c.wset;
    Ok ()
  end

let try_commit c =
  if c.dead then Error ()
  else begin
    List.iter
      (fun (x, v) -> Hashtbl.replace c.t.stores (c.pid, x) v)
      (List.rev c.wset);
    c.dead <- true;
    Ok ()
  end

let abort c = c.dead <- true

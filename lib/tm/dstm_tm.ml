(* DSTM-style obstruction-free TM [Herlihy, Luchangco, Moir & Scherer 03]
   — the corner that weakens *parallelism*:

     Parallelism: NOT strict DAP.  Writers acquire per-item locators that
                  point to the owner's transaction status word; aborting an
                  enemy CASes that word.  Two mutually disjoint
                  transactions that both conflict with a third therefore
                  contend on the third's status object — exactly the
                  chain-style weak DAP of the authors' DSTM variant [11].
     Consistency: committed transactions validate their read set on every
                  open and, at commit, *acquire* their read set (visible
                  reads at commit: each read item's locator is CASed to a
                  value-preserving self-owned one).  After that, any
                  conflicting writer must abort this transaction's status
                  word before touching the data, so the final status CAS
                  atomically decides the commit with all reads still
                  current — strict serializability of committed
                  transactions, with no validate-to-commit window.  (The
                  paper notes its impossibility covers visible read-only
                  transactions, so this variant stays in scope.)
     Liveness:    obstruction-free — a transaction retries or aborts only
                  when another process's step changed something under it,
                  and running solo it always commits.

   Per item x: a locator object [loc:x] = VList [VInt owner; old; new]
   where [owner] is the oid of the owning transaction's status object
   (-1 when unowned).  Per transaction: a status object [st:T] = VInt
   (0 active / 1 committed / 2 aborted), allocated at begin.  Items are
   dense int ids ({!Item_table}); read/write sets are id-keyed. *)

open Tm_base
open Tm_runtime

let name = "dstm"
let describe =
  "per-item locators owned through transaction status words; reads \
   acquired at commit"

let contract =
  Tm_intf.{ strict_dap = false; condition = "strict-serializability";
            liveness = Obstruction_free }

type t = { mem : Memory.t; tbl : Item_table.t; loc_oids : Oid.t array }

let create mem ~items =
  let tbl = Item_table.create items in
  let loc_oids =
    Item_table.alloc_oids tbl items ~alloc:(fun x ->
        Memory.alloc mem
          ~name:("loc:" ^ Item.name x)
          (Value.list [ Value.int (-1); Value.initial; Value.initial ]))
  in
  { mem; tbl; loc_oids }

type ctx = {
  t : t;
  pid : int;
  tid : Tid.t;
  topt : Tid.t option;  (* [Some tid], boxed once so steps don't re-box it *)
  status : Oid.t;
  mutable rset : (int * Value.t) list;  (* item id, value observed *)
  mutable wset : (int * Value.t) list;  (* ids we own, pending value *)
  mutable dead : bool;
}

let begin_txn t ~pid ~tid =
  let status =
    Memory.alloc t.mem ~name:("st:T" ^ string_of_int (Tid.to_int tid))
      (Value.int 0)
  in
  { t; pid; tid; topt = Some tid; status; rset = []; wset = []; dead = false }

let encode owner old_v new_v =
  Value.list [ Value.int owner; old_v; new_v ]

let read_status c oid = Value.to_int_exn (Proc.read_t ~tid:c.topt (Oid.of_int oid))

(* current committed value of a locator, resolving the owner's status; a
   pending write — the caller's own included — is not yet visible.  (Reads
   of items the transaction itself wrote are answered from the write set
   before this is consulted; here we need the committed view, notably for
   read-set validation of a read-then-write item.) *)
let current_value c id =
  match Proc.read_t ~tid:c.topt (Array.unsafe_get c.t.loc_oids id) with
  | Value.VList [ Value.VInt owner; old_v; new_v ] ->
      if owner = -1 || owner = Oid.to_int c.status then old_v
      else (
        match read_status c owner with
        | 1 -> new_v (* committed *)
        | _ -> old_v (* active or aborted *))
  | _ -> invalid_arg "dstm: bad locator"

(* incremental validation: every recorded read must still be current *)
let rec validate c = function
  | [] -> true
  | (id, v) :: rest -> Value.equal (current_value c id) v && validate c rest

let self_abort c =
  ignore
    (Proc.cas_t ~tid:c.topt c.status ~expected:(Value.int 0)
       ~desired:(Value.int 2));
  c.dead <- true;
  Error ()

let read c x =
  if c.dead then Error ()
  else
    let id = Item_table.id c.t.tbl x in
    match List.assoc_opt id c.wset with
    | Some v -> Ok v
    | None ->
        let v = current_value c id in
        if not (List.mem_assoc id c.rset) then c.rset <- (id, v) :: c.rset;
        if validate c c.rset then Ok v
        else self_abort c |> Result.map (fun _ -> v)

(* acquire ownership of x's locator, aborting an active enemy owner *)
let rec acquire c id v =
  let oid = Array.unsafe_get c.t.loc_oids id in
  match Proc.read_t ~tid:c.topt oid with
  | Value.VList [ Value.VInt owner; old_v; new_v ] as lv ->
      if owner = Oid.to_int c.status then begin
        (* already own it: refresh the pending value *)
        if
          Proc.cas_t ~tid:c.topt oid ~expected:lv
            ~desired:(encode owner old_v v)
        then true
        else acquire c id v
      end
      else begin
        let proceed_with cur =
          if
            Proc.cas_t ~tid:c.topt oid ~expected:lv
              ~desired:(encode (Oid.to_int c.status) cur v)
          then true
          else acquire c id v
        in
        if owner = -1 then proceed_with old_v
        else
          match read_status c owner with
          | 1 -> proceed_with new_v
          | 2 -> proceed_with old_v
          | _ ->
              (* active enemy: obstruction-free contention management —
                 abort it and retry *)
              ignore
                (Proc.cas_t ~tid:c.topt (Oid.of_int owner)
                   ~expected:(Value.int 0) ~desired:(Value.int 2));
              acquire c id v
      end
  | _ -> invalid_arg "dstm: bad locator"

let write c x v =
  if c.dead then Error ()
  else begin
    let id = Item_table.id c.t.tbl x in
    ignore (acquire c id v);
    c.wset <- (id, v) :: List.remove_assoc id c.wset;
    if validate c c.rset then Ok () else self_abort c
  end

(* acquire read ownership of x at commit: install a self-owned locator
   with old = new = the value we read, failing if the value moved *)
let rec acquire_read c id v =
  let oid = Array.unsafe_get c.t.loc_oids id in
  match Proc.read_t ~tid:c.topt oid with
  | Value.VList [ Value.VInt owner; old_v; new_v ] as lv ->
      if owner = Oid.to_int c.status then true
      else begin
        let with_current cur =
          if not (Value.equal cur v) then false (* stale read *)
          else if
            Proc.cas_t ~tid:c.topt oid ~expected:lv
              ~desired:(encode (Oid.to_int c.status) v v)
          then true
          else acquire_read c id v
        in
        if owner = -1 then with_current old_v
        else
          match read_status c owner with
          | 1 -> with_current new_v
          | 2 -> with_current old_v
          | _ ->
              ignore
                (Proc.cas_t ~tid:c.topt (Oid.of_int owner)
                   ~expected:(Value.int 0) ~desired:(Value.int 2));
              acquire_read c id v
      end
  | _ -> invalid_arg "dstm: bad locator"

let rec acquire_reads c = function
  | [] -> true
  | (id, v) :: rest ->
      (List.mem_assoc id c.wset || acquire_read c id v)
      && acquire_reads c rest

let try_commit c =
  if c.dead then Error ()
  else if not (acquire_reads c c.rset) then self_abort c
  else if
    Proc.cas_t ~tid:c.topt c.status ~expected:(Value.int 0)
      ~desired:(Value.int 1)
  then begin
    c.dead <- true;
    Ok ()
  end
  else begin
    (* an enemy aborted us *)
    c.dead <- true;
    Error ()
  end

let abort c = ignore (self_abort c)

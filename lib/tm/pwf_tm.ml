(* Partially wait-free TM [Kuznetsov & Ravi, "On Partial Wait-Freedom in
   Transactional Memory"] — the corner that keeps consistency and buys
   *partial* wait-freedom by giving up parallelism entirely:

     Parallelism: no DAP at all — the whole committed state lives behind
                  ONE root object, so even fully disjoint transactions
                  contend on it (the strongest possible strict-dap tax).
     Consistency: strictly serializable and opaque — a reader's snapshot
                  is one atomic root load; an updater's validate+publish
                  is one atomic root CAS.
     Liveness:    partially wait-free — read-only transactions are
                  wait-free with a *constant* step bound (exactly one
                  shared step: the snapshot load at begin; reads and the
                  commit of a read-only transaction take no shared steps
                  and can never abort or block).  Updaters are lock-free:
                  the commit CAS fails only because a concurrent
                  transaction committed, and an abort is only ever the
                  answer to a read-write conflict with a concurrent
                  committed writer — so updaters are progressive too, but
                  an individual updater may starve under a stream of
                  conflicting commits.

   [root] = VPair (VInt ts, VList per-item VPair (VInt ts_x, value)),
   indexed by the item's position in the [create]-time item list.  The
   per-item timestamps are what make the snapshot "versioned": an
   updater's validation compares the current timestamp of every item it
   read against its snapshot's, so an abort names the exact items a
   concurrent commit moved.

   The snapshot is kept as the raw store list (no up-front decode); reads
   and validation match the VPair entries in place, and the commit's
   rebuilt store reuses unchanged entries — structurally identical to
   re-encoding them, without the allocation. *)

open Tm_base
open Tm_runtime

let name = "pwf-readers"

let describe =
  "one root object: readers load a snapshot, updaters publish by one CAS"

(* the updaters' class: they abort under contention but cannot be kept
   from committing; read-only transactions are wait-free *)
let contract =
  Tm_intf.{ strict_dap = false; condition = "strict-serializability";
            liveness = Lock_free }

type t = { root : Oid.t; idx : (Item.t, int) Hashtbl.t }

let entry ~ts v = Value.pair (Value.int ts) v

let entry_ts = function
  | Value.VPair (Value.VInt ts, _) -> ts
  | _ -> invalid_arg "pwf: bad snapshot entry"

let entry_value = function
  | Value.VPair (_, v) -> v
  | _ -> invalid_arg "pwf: bad snapshot entry"

(* the store list inside a root value, borrowed in place *)
let store_of = function
  | Value.VPair (_, Value.VList entries) -> entries
  | _ -> invalid_arg "pwf: bad snapshot root"

let root_ts = function
  | Value.VPair (Value.VInt ts, _) -> ts
  | _ -> invalid_arg "pwf: bad snapshot root"

let create mem ~items =
  let store0 = Value.list (List.map (fun _ -> entry ~ts:0 Value.initial) items) in
  let root = Memory.alloc mem ~name:"root" (Value.pair (Value.int 0) store0) in
  let idx = Hashtbl.create 16 in
  (* positions follow the create-time item list: the root store's layout
     is part of the recorded artifact surface *)
  List.iteri (fun i x -> Hashtbl.replace idx x i) items;
  { root; idx }

let index_of t x = Hashtbl.find t.idx x

type ctx = {
  t : t;
  pid : int;
  tid : Tid.t;
  topt : Tid.t option;  (* [Some tid], boxed once so steps don't re-box it *)
  snap_root : Value.t;  (* the raw root value loaded at begin *)
  snap : Value.t list;  (* its store list, borrowed (per-item VPair (ts, v)) *)
  mutable rset : int list;  (* store indices read from the snapshot *)
  mutable wset : (int * Value.t) list;  (* newest binding first, by index *)
  mutable dead : bool;
}

let begin_txn t ~pid ~tid =
  let snap_root = Proc.read ~tid t.root in
  let snap = store_of snap_root in
  { t; pid; tid; topt = Some tid; snap_root; snap; rset = []; wset = []; dead = false }

let read c x =
  if c.dead then Error ()
  else
    let i = index_of c.t x in
    match List.assoc_opt i c.wset with
    | Some v -> Ok v
    | None ->
        let v = entry_value (List.nth c.snap i) in
        if not (List.mem i c.rset) then c.rset <- i :: c.rset;
        Ok v

let write c x v =
  if c.dead then Error ()
  else begin
    let i = index_of c.t x in
    c.wset <- (i, v) :: List.remove_assoc i c.wset;
    Ok ()
  end

let try_commit c =
  if c.dead then Error ()
  else if c.wset = [] then begin
    (* read-only: the snapshot was consistent at begin, commit is free *)
    c.dead <- true;
    Ok ()
  end
  else begin
    let snap_ts_at i = entry_ts (List.nth c.snap i) in
    (* the first attempt CASes against the begin-time snapshot itself, so
       an uncontended updater commits without re-reading the root *)
    let rec attempt cur_root =
      let cur = store_of cur_root in
      let valid =
        List.for_all
          (fun i -> entry_ts (List.nth cur i) = snap_ts_at i)
          c.rset
      in
      if not valid then begin
        (* a concurrent transaction committed a newer version of an item
           we read: the one abort cause this TM admits *)
        c.dead <- true;
        Error ()
      end
      else begin
        let ts' = root_ts cur_root + 1 in
        let store' =
          Value.list
            (List.mapi
               (fun i e ->
                 match List.assoc_opt i c.wset with
                 | Some v -> entry ~ts:ts' v
                 | None -> e (* unchanged: reuse, structurally identical *))
               cur)
        in
        if
          Proc.cas_t ~tid:c.topt c.t.root ~expected:cur_root
            ~desired:(Value.pair (Value.int ts') store')
        then begin
          c.dead <- true;
          Ok ()
        end
        else
          (* the CAS lost to another commit: lock-free retry — the failed
             attempt witnesses system-wide progress *)
          attempt (Proc.read_t ~tid:c.topt c.t.root)
      end
    in
    attempt c.snap_root
  end

let abort c = c.dead <- true

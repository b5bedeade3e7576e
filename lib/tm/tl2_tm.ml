(* TL2-style global-version-clock TM [Dice, Shalev & Shavit 06] — included
   as the *ablation* of the candidate TM: keep its per-item versioned
   registers and optimistic reads, add one global object (the version
   clock) and commit-time locking, and consistency is repaired (opacity)
   at the price of BOTH remaining legs:

     Parallelism: NOT DAP — every transaction reads the clock at begin and
                  every committing writer fetch&adds it, so fully disjoint
                  transactions contend.
     Consistency: opacity — reads are version-filtered against the begin
                  snapshot (ver <= rv, unlocked), and commits lock the
                  write set, re-validate the read set under those locks,
                  and install with a fresh clock value.
     Liveness:    blocking — commit spins on the per-item lock words, and
                  readers abort when they meet a locked or too-new item.

   Per item x: one object [tv:x] = VList [VInt owner; value; VInt version]
   where owner = -1 when unlocked (lock word, value and version share one
   object so that reads and installs are single atomic steps).  Items are
   dense int ids ({!Item_table}); id order = item order, so the commit's
   lock walk is unchanged. *)

open Tm_base
open Tm_runtime

let name = "tl2-clock"
let describe = "opacity via a global clock; neither DAP nor non-blocking (ablation)"

let contract =
  Tm_intf.{ strict_dap = false; condition = "strict-serializability";
            liveness = Blocking }

type t = { gv : Oid.t; tbl : Item_table.t; cell_oids : Oid.t array }

let create mem ~items =
  let gv = Memory.alloc mem ~name:"gv" (Value.int 0) in
  let tbl = Item_table.create items in
  let cell_oids =
    Item_table.alloc_oids tbl items ~alloc:(fun x ->
        Memory.alloc mem
          ~name:("tv:" ^ Item.name x)
          (Value.list [ Value.int (-1); Value.initial; Value.int 0 ]))
  in
  { gv; tbl; cell_oids }

type ctx = {
  t : t;
  pid : int;
  tid : Tid.t;
  topt : Tid.t option;  (* [Some tid], boxed once so steps don't re-box it *)
  rv : int;  (* read version: clock snapshot at begin *)
  mutable rset : int list;  (* item ids *)
  mutable wset : (int * Value.t) list;
  mutable dead : bool;
}

let begin_txn t ~pid ~tid =
  let rv = Value.to_int_exn (Proc.read ~tid t.gv) in
  { t; pid; tid; topt = Some tid; rv; rset = []; wset = []; dead = false }

let encode owner v ver = Value.list [ Value.int owner; v; Value.int ver ]

(* a cell read whose lock word is free; a malformed cell passes, for the
   caller to reject *)
let unowned = function
  | Value.VList [ Value.VInt owner; _; Value.VInt _ ] -> owner = -1
  | _ -> true

let read c x =
  if c.dead then Error ()
  else
    let id = Item_table.id c.t.tbl x in
    match List.assoc_opt id c.wset with
    | Some v -> Ok v
    | None -> (
        match Proc.read_t ~tid:c.topt (Array.unsafe_get c.t.cell_oids id) with
        | Value.VList [ Value.VInt owner; v; Value.VInt ver ] ->
            if owner <> -1 || ver > c.rv then begin
              (* locked by a committer, or written after our snapshot: the
                 snapshot cannot be extended — abort (TL2's read filter) *)
              c.dead <- true;
              Error ()
            end
            else begin
              if not (List.mem id c.rset) then c.rset <- id :: c.rset;
              Ok v
            end
        | _ -> invalid_arg "tl2: bad cell")

let write c x v =
  if c.dead then Error ()
  else begin
    let id = Item_table.id c.t.tbl x in
    c.wset <- (id, v) :: List.remove_assoc id c.wset;
    Ok ()
  end

(* validate the read set under the locks: unlocked (or locked by us) and
   not newer than the begin snapshot *)
let rec validate c = function
  | [] -> true
  | id :: rest -> (
      match Proc.read_t ~tid:c.topt (Array.unsafe_get c.t.cell_oids id) with
      | Value.VList [ Value.VInt owner; _; Value.VInt ver ] ->
          (owner = -1 || owner = c.pid) && ver <= c.rv && validate c rest
      | _ -> invalid_arg "tl2: bad cell")

let try_commit c =
  if c.dead then Error ()
  else begin
    c.dead <- true;
    if c.wset = [] then Ok () (* read-only fast path, as in TL2 *)
    else begin
      let items = List.sort Int.compare (List.map fst c.wset) in
      (* lock the write set in item order (spin until the cell is
         unowned: the blocking part) *)
      let rec lock_all held = function
        | [] -> held
        | id :: rest as pending -> (
            let oid = Array.unsafe_get c.t.cell_oids id in
            let cur =
              Proc.await_t ~tid:c.topt oid Primitive.Read ~until:unowned
            in
            match cur with
            | Value.VList [ Value.VInt _; v; Value.VInt ver ] ->
                if
                  Proc.cas_t ~tid:c.topt oid ~expected:cur
                    ~desired:(encode c.pid v ver)
                then lock_all ((id, v, ver) :: held) rest
                else lock_all held pending
            | _ -> invalid_arg "tl2: bad cell")
      in
      let held = lock_all [] items in
      let release () =
        List.iter
          (fun (id, v, ver) ->
            Proc.write_t ~tid:c.topt
              (Array.unsafe_get c.t.cell_oids id)
              (encode (-1) v ver))
          held
      in
      (* fresh write version *)
      let wv = 1 + Proc.fetch_add_t ~tid:c.topt c.t.gv 1 in
      (* validate the read set under the locks.  Items we also write are
         locked by us and validate by version alone — skipping them would
         re-admit the lost update. *)
      if not (validate c c.rset) then begin
        release ();
        Error ()
      end
      else begin
        (* install and unlock in one atomic write per item *)
        List.iter
          (fun (id, _, _) ->
            let v = List.assoc id c.wset in
            Proc.write_t ~tid:c.topt
              (Array.unsafe_get c.t.cell_oids id)
              (encode (-1) v wv))
          held;
        Ok ()
      end
    end
  end

let abort c = c.dead <- true

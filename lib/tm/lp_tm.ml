(* LP-style progressive TM [Kuznetsov & Ravi, "Progressive Transactional
   Memory in Time and Space"] — the corner that weakens liveness only as
   far as *progressiveness*: a transaction may be aborted only on a
   read-write conflict with a concurrent transaction, so every
   step-contention-free transaction commits.

     Parallelism: strict DAP — only per-item locator objects are touched.
     Consistency: opaque (incremental read-set validation on every read
                  plus commit-time validation; an abort is the only
                  possible answer to interference, never an inconsistent
                  view).
     Liveness:    progressive, but NOT obstruction-free — a suspended
                  lock holder forces conflicting transactions to abort
                  themselves forever (the of-stall "uncontended abort"
                  arm fires by design: the aborts are attributable to the
                  conflicting *transaction*, not to step contention).

   Per item x one locator [loc:x] = VList [VInt owner; VInt ver; value],
   owner = -1 when unlocked.  Writers acquire the lock at encounter time
   with a CAS on the locator itself (so readers can observe lock state and
   lock acquisition is one atomic step); conflict — a held lock, a CAS
   lost to an interfering step, or a version moved under a read — always
   means "abort self", never "wait".  The per-read revalidation of the
   whole read set is the time cost the paper proves inherent: progressive
   TMs with invisible reads must do incremental validation.  Items are
   dense int ids ({!Item_table}); id order = item order, so the commit's
   publish walk is unchanged. *)

open Tm_base
open Tm_runtime

let name = "lp-progressive"

let describe =
  "strict DAP + opaque, progressive: conflict => abort self (weakens L)"

(* a solo transaction aborts on a suspended lock holder: blocking *)
let contract =
  Tm_intf.{ strict_dap = true; condition = "strict-serializability";
            liveness = Blocking }

type t = { tbl : Item_table.t; loc_oids : Oid.t array }

let unlocked = -1

let cell ~owner ~ver v = Value.list [ Value.int owner; Value.int ver; v ]

let create mem ~items =
  let tbl = Item_table.create items in
  let loc_oids =
    Item_table.alloc_oids tbl items ~alloc:(fun x ->
        Memory.alloc mem
          ~name:("loc:" ^ Item.name x)
          (cell ~owner:unlocked ~ver:0 Value.initial))
  in
  { tbl; loc_oids }

type ctx = {
  t : t;
  pid : int;
  tid : Tid.t;
  topt : Tid.t option;  (* [Some tid], boxed once so steps don't re-box it *)
  mutable rset : (int * int) list;  (* item id, version at first read *)
  mutable wset : (int * Value.t) list;  (* newest binding first *)
  mutable locked : (int * (int * Value.t)) list;
      (* ids whose locator we hold, with the (version, value) to restore
         on abort *)
  mutable dead : bool;
}

let begin_txn t ~pid ~tid =
  { t; pid; tid; topt = Some tid; rset = []; wset = []; locked = []; dead = false }

let read_loc c id = Proc.read_t ~tid:c.topt (Array.unsafe_get c.t.loc_oids id)

(* abort self: restore every held locator to its pre-lock (version, value)
   — the version is unchanged, so reads made before we locked stay valid *)
let self_abort c =
  List.iter
    (fun (id, (ver, v)) ->
      Proc.write_t ~tid:c.topt
        (Array.unsafe_get c.t.loc_oids id)
        (cell ~owner:unlocked ~ver v))
    c.locked;
  c.locked <- [];
  c.dead <- true

(* incremental validation: every previously read, still-unlocked item must
   be unlocked at its recorded version.  Items we hold the lock on cannot
   move under us and are skipped. *)
let rec validate c = function
  | [] -> true
  | (id, ver0) :: rest ->
      (List.mem_assoc id c.locked
      ||
      match read_loc c id with
      | Value.VList [ Value.VInt owner; Value.VInt ver; _ ] ->
          owner = unlocked && ver = ver0
      | _ -> invalid_arg "lp: bad locator")
      && validate c rest

let conflict c =
  self_abort c;
  Error ()

let read c x =
  if c.dead then Error ()
  else
    let id = Item_table.id c.t.tbl x in
    match List.assoc_opt id c.wset with
    | Some v -> Ok v
    | None -> (
        match read_loc c id with
        | Value.VList [ Value.VInt owner; Value.VInt ver; v ] ->
            if owner <> unlocked then conflict c
              (* locked by a concurrent txn *)
            else if
              match List.assoc_opt id c.rset with
              | Some ver0 -> ver <> ver0
              | None -> false
            then conflict c (* the item moved between our reads *)
            else if not (validate c c.rset) then conflict c
            else begin
              if not (List.mem_assoc id c.rset) then
                c.rset <- (id, ver) :: c.rset;
              Ok v
            end
        | _ -> invalid_arg "lp: bad locator")

let write c x v =
  if c.dead then Error ()
  else
    let id = Item_table.id c.t.tbl x in
    if List.mem_assoc id c.locked then begin
      c.wset <- (id, v) :: List.remove_assoc id c.wset;
      Ok ()
    end
    else
      match read_loc c id with
      | Value.VList [ Value.VInt owner; Value.VInt ver; cur ] as cur_loc ->
          if owner <> unlocked then conflict c
          else if
            match List.assoc_opt id c.rset with
            | Some ver0 -> ver <> ver0
            | None -> false
          then conflict c
          else if
            (* the expected value is the locator we just read — CAS
               compares structurally, so no reconstruction is needed *)
            not
              (Proc.cas_t ~tid:c.topt
                 (Array.unsafe_get c.t.loc_oids id)
                 ~expected:cur_loc
                 ~desired:(cell ~owner:c.pid ~ver cur))
          then conflict c (* an interfering step took the locator first *)
          else begin
            c.locked <- (id, (ver, cur)) :: c.locked;
            c.wset <- (id, v) :: List.remove_assoc id c.wset;
            Ok ()
          end
      | _ -> invalid_arg "lp: bad locator"

let try_commit c =
  if c.dead then Error ()
  else if not (validate c c.rset) then conflict c
  else begin
    (* publish + unlock in one atomic step per item, in item order *)
    List.iter
      (fun id ->
        let ver, _ = List.assoc id c.locked in
        let v = List.assoc id c.wset in
        Proc.write_t ~tid:c.topt
          (Array.unsafe_get c.t.loc_oids id)
          (cell ~owner:unlocked ~ver:(ver + 1) v))
      (List.sort Int.compare (List.map fst c.locked));
    c.locked <- [];
    c.dead <- true;
    Ok ()
  end

let abort c = if not c.dead then self_abort c

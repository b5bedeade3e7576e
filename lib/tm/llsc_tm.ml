(* The candidate TM rebuilt on load-linked/store-conditional — the same
   doomed corner of the triangle reached through different primitives.
   The paper's model allows base objects with any primitives; the PCL
   theorem is primitive-agnostic, and this implementation demonstrates it:

     Parallelism: strict DAP — only the items' own cells are accessed.
     Liveness:    obstruction-free — an SC fails only because another
                  process's step invalidated the reservation; running solo
                  every SC succeeds.
     Consistency: broken, exactly like {!Candidate_tm}: the commit
                  installs items one SC at a time, so a concurrent reader
                  can observe half of a commit.  The PCL harness finds the
                  same Figure-5/6 violations, with s1/s2 now being SC
                  steps instead of CASes.

   Per item x: one plain register [ll:x] (items as dense int ids via
   {!Item_table}, id order = item order); reads LL it (leaving a
   reservation that doubles as validation), commits SC it (read-write
   items reuse the read's reservation, so lost updates are impossible on a
   single item; read-only items are validated by an SC of the same value,
   which makes reads visible at commit, as the paper permits). *)

open Tm_base
open Tm_runtime

let name = "llsc-candidate"
let describe =
  "strict DAP + obstruction-free via LL/SC; consistency broken (the \
   primitive-agnostic victim)"

let contract =
  Tm_intf.{ strict_dap = true; condition = "weak-adaptive";
            liveness = Lock_free }

type t = { tbl : Item_table.t; cell_oids : Oid.t array }

let create mem ~items =
  let tbl = Item_table.create items in
  let cell_oids =
    Item_table.alloc_oids tbl items ~alloc:(fun x ->
        Memory.alloc mem ~name:("ll:" ^ Item.name x) Value.initial)
  in
  { tbl; cell_oids }

type ctx = {
  t : t;
  pid : int;
  tid : Tid.t;
  topt : Tid.t option;  (* [Some tid], boxed once so steps don't re-box it *)
  mutable rset : (int * Value.t) list;  (* item id, value at load-linked *)
  mutable wset : (int * Value.t) list;
  mutable dead : bool;
}

let begin_txn t ~pid ~tid = { t; pid; tid; topt = Some tid; rset = []; wset = []; dead = false }

let ll c id =
  Proc.access_t ~tid:c.topt
    (Array.unsafe_get c.t.cell_oids id)
    (Primitive.Load_linked c.pid)

let sc c id v =
  Value.to_bool_exn
    (Proc.access_t ~tid:c.topt
       (Array.unsafe_get c.t.cell_oids id)
       (Primitive.Store_conditional (c.pid, v)))

let read c x =
  if c.dead then Error ()
  else
    let id = Item_table.id c.t.tbl x in
    match List.assoc_opt id c.wset with
    | Some v -> Ok v
    | None ->
        let v = ll c id in
        if not (List.mem_assoc id c.rset) then c.rset <- (id, v) :: c.rset;
        Ok v

let write c x v =
  if c.dead then Error ()
  else begin
    let id = Item_table.id c.t.tbl x in
    c.wset <- (id, v) :: List.remove_assoc id c.wset;
    Ok ()
  end

(* 1. validate read-only items: SC their own value back — succeeds iff
   nothing touched the cell since our LL *)
let rec validate c = function
  | [] -> true
  | (id, v) :: rest ->
      (List.mem_assoc id c.wset || sc c id v) && validate c rest

let try_commit c =
  if c.dead then Error ()
  else begin
    c.dead <- true;
    if not (validate c c.rset) then Error ()
    else begin
      (* 2. install the write set one SC at a time (the torn write-back);
         read-write items reuse the read's reservation, write-only items
         take a fresh LL immediately before their SC *)
      let rec install = function
        | [] -> Ok ()
        | (id, v) :: rest ->
            if not (List.mem_assoc id c.rset) then ignore (ll c id);
            if sc c id v then install rest
            else Error () (* someone interfered: abort, obstruction-free *)
      in
      install (List.sort (fun (a, _) (b, _) -> Int.compare a b) c.wset)
    end
  end

let abort c = c.dead <- true

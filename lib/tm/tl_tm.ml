(* TL-style lock-based TM [Dice & Shavit 06], the paper's witness that
   weakening *liveness* makes the other two properties achievable:

     Parallelism: strict DAP — only per-item base objects are touched.
     Consistency: strict serializability — commit-time locking of the
                  read AND write sets (in item order, so commits never
                  deadlock) plus version validation of the read set.
                  Locking the read set closes the validate-to-install
                  window through which a conflicting writer could
                  otherwise slip (the race that motivated TL2's global
                  clock; here read locks keep the TM strictly DAP).
     Liveness:    blocking — commit spins on per-item locks, so a
                  suspended lock holder stalls everyone conflicting.

   Per item x: a lock object [lock:x] and a versioned value [val:x]
   holding VPair (value, VInt version).  Items are handled as dense int
   ids ({!Item_table}); read/write sets are id-keyed, and the id order
   coincides with item order, so the commit's lock walk is unchanged. *)

open Tm_base
open Tm_runtime

let name = "tl-lock"
let describe = "strict DAP + strict serializability, blocking (weakens L)"

let contract =
  Tm_intf.{ strict_dap = true; condition = "strict-serializability";
            liveness = Blocking }

type t = {
  tbl : Item_table.t;
  val_oids : Oid.t array;  (* id -> versioned value object *)
  lock_oids : Oid.t array;  (* id -> lock object *)
}

let create mem ~items =
  let tbl = Item_table.create items in
  let n = Item_table.size tbl in
  let val_oids = Array.make n (Oid.of_int 0) in
  let lock_oids = Array.make n (Oid.of_int 0) in
  (* allocation stays in the caller's item order: oid numbering is part
     of the byte-pinned artifact surface *)
  List.iter
    (fun x ->
      let id = Item_table.id tbl x in
      val_oids.(id) <-
        Memory.alloc mem
          ~name:("val:" ^ Item.name x)
          (Value.pair Value.initial (Value.int 0));
      lock_oids.(id) <-
        Memory.alloc mem ~name:("lock:" ^ Item.name x) Value.unit)
    items;
  { tbl; val_oids; lock_oids }

type ctx = {
  t : t;
  pid : int;
  tid : Tid.t;
  topt : Tid.t option;  (* [Some tid], boxed once so steps don't re-box it *)
  mutable rset : (int * int) list;  (* item id, version at first read *)
  mutable wset : (int * Value.t) list;  (* newest binding first *)
  mutable dead : bool;
}

let begin_txn t ~pid ~tid =
  { t; pid; tid; topt = Some tid; rset = []; wset = []; dead = false }

(* one atomic read of [val:x], version only — no pair materialized *)
let cell_ver c id =
  match Proc.read_t ~tid:c.topt (Array.unsafe_get c.t.val_oids id) with
  | Value.VPair (_, Value.VInt ver) -> ver
  | _ -> invalid_arg "tl: bad cell"

let read c x =
  if c.dead then Error ()
  else
    let id = Item_table.id c.t.tbl x in
    match List.assoc_opt id c.wset with
    | Some v -> Ok v
    | None -> (
        match Proc.read_t ~tid:c.topt (Array.unsafe_get c.t.val_oids id) with
        | Value.VPair (v, Value.VInt ver) ->
            if not (List.mem_assoc id c.rset) then
              c.rset <- (id, ver) :: c.rset;
            Ok v
        | _ -> invalid_arg "tl: bad cell")

let write c x v =
  if c.dead then Error ()
  else begin
    let id = Item_table.id c.t.tbl x in
    c.wset <- (id, v) :: List.remove_assoc id c.wset;
    Ok ()
  end

let write_items c = List.sort Int.compare (List.map fst c.wset)

(* every item the commit must lock: read set union write set, in item
   order (= id order) so that concurrent commits never deadlock *)
let lock_items c =
  List.sort_uniq Int.compare (List.map fst c.wset @ List.map fst c.rset)

let rec release c = function
  | [] -> ()
  | id :: rest ->
      Proc.unlock_t ~tid:c.topt ~pid:c.pid (Array.unsafe_get c.t.lock_oids id);
      release c rest

let rec validate c = function
  | [] -> true
  | (id, ver0) :: rest -> cell_ver c id = ver0 && validate c rest

let rec write_back c = function
  | [] -> ()
  | id :: rest ->
      let v = List.assoc id c.wset in
      let ver = cell_ver c id in
      Proc.write_t ~tid:c.topt
        (Array.unsafe_get c.t.val_oids id)
        (Value.pair v (Value.int (ver + 1)));
      write_back c rest

let try_commit c =
  if c.dead then Error ()
  else begin
    (* acquire read+write locks in item order; spin — the blocking part *)
    let rec acquire held = function
      | [] -> held
      | id :: rest ->
          ignore
            (Proc.await_t ~tid:c.topt
               (Array.unsafe_get c.t.lock_oids id)
               (Primitive.Try_lock c.pid) ~until:Value.to_bool_exn);
          acquire (id :: held) rest
    in
    let held = acquire [] (lock_items c) in
    (* validate the read set: versions unchanged since first read *)
    if not (validate c c.rset) then begin
      release c held;
      c.dead <- true;
      Error ()
    end
    else begin
      (* write back, then release everything *)
      write_back c (write_items c);
      release c held;
      c.dead <- true;
      Ok ()
    end
  end

let abort c = c.dead <- true

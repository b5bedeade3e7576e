(* The candidate TM — the theorem's victim.

   A natural attempt to get all three properties at once: per-item
   versioned registers and nothing else (no clock, no status words, no
   locks), optimistic reads, commit-time read-set validation and per-item
   CAS write-back.

     Parallelism: strict DAP — a transaction only ever touches the base
                  objects of its own data set.
     Liveness:    obstruction-free — the only aborts are validation or CAS
                  failures, which can only be caused by another process's
                  step inside the transaction's interval; running solo it
                  always commits.
     Consistency: by the PCL theorem it therefore CANNOT satisfy even weak
                  adaptive consistency.  And indeed it does not: the
                  commit write-back installs items one CAS at a time, so a
                  concurrent reader can observe half of a commit — the PCL
                  harness exhibits exactly the executions of Figures 3-6
                  against it, and the weak-adaptive checker refutes the
                  resulting histories.

   Per item x: [cell:x] = VPair (value, VInt version).  Items are dense
   int ids ({!Item_table}); id order = item order, so the install walk is
   unchanged. *)

open Tm_base
open Tm_runtime

let name = "candidate"
let describe = "strict DAP + obstruction-free; consistency broken (the PCL victim)"

let contract =
  Tm_intf.{ strict_dap = true; condition = "weak-adaptive";
            liveness = Lock_free }

type t = { tbl : Item_table.t; cell_oids : Oid.t array }

let create mem ~items =
  let tbl = Item_table.create items in
  let cell_oids =
    Item_table.alloc_oids tbl items ~alloc:(fun x ->
        Memory.alloc mem
          ~name:("cell:" ^ Item.name x)
          (Value.pair Value.initial (Value.int 0)))
  in
  { tbl; cell_oids }

type ctx = {
  t : t;
  pid : int;
  tid : Tid.t;
  topt : Tid.t option;  (* [Some tid], boxed once so steps don't re-box it *)
  mutable rset : (int * (Value.t * int)) list;
      (* item id -> value and version at first read *)
  mutable wset : (int * Value.t) list;
  mutable dead : bool;
}

let begin_txn t ~pid ~tid =
  { t; pid; tid; topt = Some tid; rset = []; wset = []; dead = false }

(* one atomic read of [cell:x], version only — no pair materialized *)
let cell_ver c id =
  match Proc.read_t ~tid:c.topt (Array.unsafe_get c.t.cell_oids id) with
  | Value.VPair (_, Value.VInt ver) -> ver
  | _ -> invalid_arg "candidate: bad cell"

let read c x =
  if c.dead then Error ()
  else
    let id = Item_table.id c.t.tbl x in
    match List.assoc_opt id c.wset with
    | Some v -> Ok v
    | None -> (
        match Proc.read_t ~tid:c.topt (Array.unsafe_get c.t.cell_oids id) with
        | Value.VPair (v, Value.VInt ver) ->
            if not (List.mem_assoc id c.rset) then
              c.rset <- (id, (v, ver)) :: c.rset;
            Ok v
        | _ -> invalid_arg "candidate: bad cell")

let write c x v =
  if c.dead then Error ()
  else begin
    let id = Item_table.id c.t.tbl x in
    c.wset <- (id, v) :: List.remove_assoc id c.wset;
    Ok ()
  end

(* validate read-only items: first-read version unchanged.  A failure
   implies an interfering step, so aborting preserves
   obstruction-freedom.  Read-write items are enforced by the install
   CAS below, which is pinned to the first-read state — re-reading
   here would open a lost-update window. *)
let rec validate c = function
  | [] -> true
  | (id, (_, ver0)) :: rest ->
      (List.mem_assoc id c.wset || cell_ver c id = ver0) && validate c rest

let try_commit c =
  if c.dead then Error ()
  else if not (validate c c.rset) then begin
    c.dead <- true;
    Error ()
  end
  else begin
    (* install item by item — the non-atomic MULTI-item write-back is
       the consistency defect the theorem mandates; each single item is
       updated atomically from its validated state *)
    let rec install = function
      | [] -> Ok ()
      | (id, v) :: rest ->
          let expected =
            match List.assoc_opt id c.rset with
            | Some (v0, ver0) -> Value.pair v0 (Value.int ver0)
            | None -> (
                match
                  Proc.read_t ~tid:c.topt (Array.unsafe_get c.t.cell_oids id)
                with
                | Value.VPair (_, Value.VInt _) as cur -> cur
                | _ -> invalid_arg "candidate: bad cell")
          in
          let ver =
            match expected with
            | Value.VPair (_, Value.VInt ver) -> ver
            | _ -> invalid_arg "candidate: bad cell"
          in
          if
            Proc.cas_t ~tid:c.topt
              (Array.unsafe_get c.t.cell_oids id)
              ~expected
              ~desired:(Value.pair v (Value.int (ver + 1)))
          then install rest
          else Error () (* contention: abort, obstruction-free *)
    in
    let sorted =
      List.sort (fun (a, _) (b, _) -> Int.compare a b) c.wset
    in
    let r = install sorted in
    c.dead <- true;
    r
  end

let abort c = c.dead <- true

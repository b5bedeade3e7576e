(* NOrec [Dalessandro, Spear & Scott 10]: a single global sequence lock
   and value-based revalidation — the minimal-metadata design point.

     Parallelism: NOT DAP — every transaction reads the global sequence
                  word and every writer CASes it, so disjoint transactions
                  contend on [seq] exactly like on si-clock's clock.
     Consistency: opacity — reads post-validate against the sequence word
                  and revalidate the entire read set by value whenever it
                  moved, so a transaction only ever observes snapshots.
     Liveness:    blocking — the sequence word is odd while a writer is
                  writing back; readers and committers spin on it, so a
                  suspended writer stalls everyone (including disjoint
                  transactions: the anti-DAP and anti-liveness defects
                  coincide in the same object).

   Objects: [seq] = VInt (even = stable, odd = writer in write-back);
   per item [nv:x] = plain value register (items as dense int ids via
   {!Item_table}; write-back order is the [List.rev c.wset] insertion
   order, unchanged by the keying). *)

open Tm_base
open Tm_runtime

let name = "norec"
let describe = "one global sequence lock and value-based revalidation"

let contract =
  Tm_intf.{ strict_dap = false; condition = "strict-serializability";
            liveness = Blocking }

type t = { seq : Oid.t; tbl : Item_table.t; cell_oids : Oid.t array }

let create mem ~items =
  let seq = Memory.alloc mem ~name:"seq" (Value.int 0) in
  let tbl = Item_table.create items in
  let cell_oids =
    Item_table.alloc_oids tbl items ~alloc:(fun x ->
        Memory.alloc mem ~name:("nv:" ^ Item.name x) Value.initial)
  in
  { seq; tbl; cell_oids }

type ctx = {
  t : t;
  pid : int;
  tid : Tid.t;
  topt : Tid.t option;  (* [Some tid], boxed once so steps don't re-box it *)
  mutable snapshot : int;  (* last even seq value we validated at *)
  mutable rset : (int * Value.t) list;  (* value-based read log, by item id *)
  mutable wset : (int * Value.t) list;
  mutable dead : bool;
}

(* spin until the sequence word is even (a suspended writer blocks us
   here — NOrec's blocking window) *)
let even v = Value.to_int_exn v land 1 = 0

let wait_even c =
  Value.to_int_exn
    (Proc.await_t ~tid:c.topt c.t.seq Primitive.Read ~until:even)

let begin_txn t ~pid ~tid =
  let c = { t; pid; tid; topt = Some tid; snapshot = 0; rset = []; wset = []; dead = false } in
  c.snapshot <- wait_even c;
  c

(* value-based revalidation: returns the new stable snapshot, or None if
   some read value changed (we must abort) *)
let rec revalidate c =
  let s = wait_even c in
  let ok =
    List.for_all
      (fun (id, v) ->
        Value.equal
          (Proc.read_t ~tid:c.topt (Array.unsafe_get c.t.cell_oids id))
          v)
      c.rset
  in
  if not ok then None
  else
    let s' = Value.to_int_exn (Proc.read_t ~tid:c.topt c.t.seq) in
    if s' = s then Some s else revalidate c

let read c x =
  if c.dead then Error ()
  else
    let id = Item_table.id c.t.tbl x in
    match List.assoc_opt id c.wset with
    | Some v -> Ok v
    | None ->
        let rec go () =
          let v =
            Proc.read_t ~tid:c.topt (Array.unsafe_get c.t.cell_oids id)
          in
          let s = Value.to_int_exn (Proc.read_t ~tid:c.topt c.t.seq) in
          if s = c.snapshot then Ok v
          else
            match revalidate c with
            | None ->
                c.dead <- true;
                Error ()
            | Some s' ->
                c.snapshot <- s';
                go ()
        in
        Result.map
          (fun v ->
            c.rset <- (id, v) :: c.rset;
            v)
          (go ())

let write c x v =
  if c.dead then Error ()
  else begin
    let id = Item_table.id c.t.tbl x in
    c.wset <- (id, v) :: List.remove_assoc id c.wset;
    Ok ()
  end

let try_commit c =
  if c.dead then Error ()
  else begin
    c.dead <- true;
    if c.wset = [] then Ok () (* read-only transactions commit for free *)
    else begin
      (* acquire the sequence lock at our snapshot, revalidating until we
         win the CAS from an even value we have validated against *)
      let rec acquire () =
        if
          Proc.cas_t ~tid:c.topt c.t.seq ~expected:(Value.int c.snapshot)
            ~desired:(Value.int (c.snapshot + 1))
        then Ok ()
        else
          match revalidate c with
          | None -> Error ()
          | Some s ->
              c.snapshot <- s;
              acquire ()
      in
      match acquire () with
      | Error () -> Error ()
      | Ok () ->
          List.iter
            (fun (id, v) ->
              Proc.write_t ~tid:c.topt (Array.unsafe_get c.t.cell_oids id) v)
            (List.rev c.wset);
          Proc.write_t ~tid:c.topt c.t.seq (Value.int (c.snapshot + 2));
          Ok ()
    end
  end

let abort c = c.dead <- true

(* Global-clock multiversion snapshot isolation, after SI-STM [Riegel,
   Fetzer & Felber 06] — the other corner that weakens *parallelism*:

     Parallelism: NOT disjoint-access-parallel in any variant: every
                  transaction reads the global clock and every committing
                  writer fetch&adds it, so even fully disjoint transactions
                  contend on the clock (exactly the paper's remark about
                  SI-STM, Section 2).
     Consistency: snapshot isolation (the paper's weak Def. 3.1 — no
                  first-committer-wins rule: concurrent writers to the same
                  item may both commit).
     Liveness:    obstruction-free — installs retry only when an
                  interfering step changed the version list; commits never
                  fail.

   Objects: [clock] = VInt; per item [ver:x] = VList of version entries
   VList [VInt owner; VInt ts; value].  A pending entry carries the oid of
   its owner's commit record [sic:T] = VPair (VInt state, VInt ts); all of
   a transaction's versions become visible atomically when that record is
   CASed to committed, which closes the torn-snapshot race of naive
   install-then-publish designs.

   Commit protocol: install all pending entries (state 0, invisible), seal
   the record (state 3), fetch&add the clock, publish (state 1 with the
   timestamp).  A reader that meets a sealed record *helps*: it fetch&adds
   the clock itself and tries to publish on the owner's behalf, so
   resolution is non-blocking even if the committer is suspended between
   its last two steps.

   Items are dense int ids ({!Item_table}); the read path scans the raw
   version list in place (no per-entry decoding). *)

open Tm_base
open Tm_runtime

let name = "si-clock"
let describe = "snapshot isolation + obstruction-free, no DAP (weakens P)"

(* commits never fail, and install retries are contention-bounded *)
let contract =
  Tm_intf.{ strict_dap = false; condition = "snapshot-isolation";
            liveness = Wait_free }

type t = { mem : Memory.t; clock : Oid.t; tbl : Item_table.t; ver_oids : Oid.t array }

let create mem ~items =
  let clock = Memory.alloc mem ~name:"clock" (Value.int 0) in
  let tbl = Item_table.create items in
  let ver_oids =
    Item_table.alloc_oids tbl items ~alloc:(fun x ->
        Memory.alloc mem
          ~name:("ver:" ^ Item.name x)
          (Value.list
             [ Value.list [ Value.int (-1); Value.int 0; Value.initial ] ]))
  in
  { mem; clock; tbl; ver_oids }

type ctx = {
  t : t;
  pid : int;
  tid : Tid.t;
  topt : Tid.t option;  (* [Some tid], boxed once so steps don't re-box it *)
  snap : int;  (* snapshot timestamp taken at begin *)
  record : Oid.t;  (* commit record *)
  mutable wset : (int * Value.t) list;
  mutable dead : bool;
}

let begin_txn t ~pid ~tid =
  let record =
    Memory.alloc t.mem
      ~name:("sic:T" ^ string_of_int (Tid.to_int tid))
      (Value.pair (Value.int 0) (Value.int (-1)))
  in
  let snap = Value.to_int_exn (Proc.read ~tid t.clock) in
  { t; pid; tid; topt = Some tid; snap; record; wset = []; dead = false }

(* commit timestamp of a pending entry's owner record, or [min_int] while
   the owner is still active (invisible).  A sealed record (state 3) is
   helped to completion. *)
let rec owner_ts c owner =
  match Proc.read_t ~tid:c.topt (Oid.of_int owner) with
  | Value.VPair (Value.VInt 1, Value.VInt cts) -> cts
  | Value.VPair (Value.VInt 3, _) ->
      let hts = 1 + Proc.fetch_add_t ~tid:c.topt c.t.clock 1 in
      ignore
        (Proc.cas_t ~tid:c.topt (Oid.of_int owner)
           ~expected:(Value.pair (Value.int 3) (Value.int (-1)))
           ~desired:(Value.pair (Value.int 1) (Value.int hts)));
      owner_ts c owner
  | _ -> min_int (* owner still active: invisible *)

(* newest visible version with ts <= snapshot, scanning the raw version
   list in place; [acc_ts] starts at [min_int] so the initial-value
   fallback needs no option *)
let rec best c acc_ts acc_v = function
  | [] -> acc_v
  | Value.VList [ Value.VInt owner; Value.VInt ts0; v ] :: rest ->
      let ts = if owner = -1 then ts0 else owner_ts c owner in
      if ts <= c.snap && ts > acc_ts then best c ts v rest
      else best c acc_ts acc_v rest
  | _ -> invalid_arg "si: bad version entry"

let read c x =
  if c.dead then Error ()
  else
    let id = Item_table.id c.t.tbl x in
    match List.assoc_opt id c.wset with
    | Some v -> Ok v
    | None ->
        let entries =
          Value.to_list_exn
            (Proc.read_t ~tid:c.topt (Array.unsafe_get c.t.ver_oids id))
        in
        Ok (best c min_int Value.initial entries)

let write c x v =
  if c.dead then Error ()
  else begin
    let id = Item_table.id c.t.tbl x in
    c.wset <- (id, v) :: List.remove_assoc id c.wset;
    Ok ()
  end

let max_versions = 8

let rec install c id v =
  let oid = Array.unsafe_get c.t.ver_oids id in
  let cur = Proc.read_t ~tid:c.topt oid in
  let entries = Value.to_list_exn cur in
  let entry =
    Value.list [ Value.int (Oid.to_int c.record); Value.int (-1); v ]
  in
  let keep =
    if List.length entries >= max_versions then
      List.filteri (fun i _ -> i < max_versions - 1) entries
    else entries
  in
  if
    Proc.cas_t ~tid:c.topt oid ~expected:cur
      ~desired:(Value.list (entry :: keep))
  then ()
  else install c id v (* interfering step: retry, obstruction-free *)

let try_commit c =
  if c.dead then Error ()
  else begin
    if c.wset <> [] then begin
      List.iter (fun (id, v) -> install c id v) (List.rev c.wset);
      (* seal: from here on helpers may finish the publish for us *)
      ignore
        (Proc.cas_t ~tid:c.topt c.record
           ~expected:(Value.pair (Value.int 0) (Value.int (-1)))
           ~desired:(Value.pair (Value.int 3) (Value.int (-1))));
      let ts = 1 + Proc.fetch_add_t ~tid:c.topt c.t.clock 1 in
      (* publish atomically: every pending version becomes visible here
         (the CAS fails harmlessly if a helper already published) *)
      ignore
        (Proc.cas_t ~tid:c.topt c.record
           ~expected:(Value.pair (Value.int 3) (Value.int (-1)))
           ~desired:(Value.pair (Value.int 1) (Value.int ts)))
    end;
    c.dead <- true;
    Ok ()
  end

let abort c = c.dead <- true

(* Static transactions (Section 3, "Disjoint-access-parallelism"): the data
   items a transaction accesses are fixed and derivable from its code.  The
   PCL proof's T1..T7 are exactly of this shape: read a list of items, then
   write a list of items, then commit. *)

open Tm_base

type spec = {
  tid : Tid.t;
  pid : int;
  reads : Item.t list;
  writes : (Item.t * Value.t) list;
}

(** D(T): the static data set. *)
let data_set (s : spec) : Item.Set.t =
  Item.Set.union
    (Item.set_of_list s.reads)
    (Item.set_of_list (List.map fst s.writes))

let data_sets (specs : spec list) : (Tid.t * Item.Set.t) list =
  List.map (fun s -> (s.tid, data_set s)) specs

type status = Committed | Aborted | Unstarted
[@@warning "-37"]

type outcome = {
  mutable read_values : (Item.t * Value.t) list;  (* in read order *)
  mutable status : status;
}

let new_outcome () = { read_values = []; status = Unstarted }

(** The value the transaction read for [x], if it got that far. *)
let read_value (o : outcome) x = List.assoc_opt x o.read_values

(** Build the process program executing [spec] once (no retry — the
    paper's transactions run once and either commit or abort).  The
    outcome is written into [outcomes] keyed by tid. *)
let program (handle : Txn_api.handle) (spec : spec)
    ~(outcomes : (Tid.t, outcome) Hashtbl.t) : unit -> unit =
 fun () ->
  let o = new_outcome () in
  Hashtbl.replace outcomes spec.tid o;
  let txn = handle.Txn_api.begin_txn ~pid:spec.pid ~tid:spec.tid in
  let rec do_reads = function
    | [] -> Ok ()
    | x :: rest -> (
        match Txn_api.read txn x with
        | Ok v ->
            o.read_values <- o.read_values @ [ (x, v) ];
            do_reads rest
        | Error () -> Error ())
  in
  let rec do_writes = function
    | [] -> Ok ()
    | (x, v) :: rest -> (
        match Txn_api.write txn x v with
        | Ok () -> do_writes rest
        | Error () -> Error ())
  in
  let result =
    match do_reads spec.reads with
    | Error () -> Error ()
    | Ok () -> (
        match do_writes spec.writes with
        | Error () -> Error ()
        | Ok () -> Txn_api.try_commit txn)
  in
  o.status <- (match result with Ok () -> Committed | Error () -> Aborted)

(** Items appearing in any of the specs (for [Tm_intf.S.create]). *)
let items_of (specs : spec list) : Item.t list =
  Item.Set.elements
    (List.fold_left
       (fun acc s -> Item.Set.union acc (data_set s))
       Item.Set.empty specs)

(** The static world: each spec spawned as its own process.  The items
    are computed once per [setup specs], not once per world. *)
let setup (specs : spec list) =
  let items = items_of specs in
  fun (impl : Tm_intf.impl) outcomes : Tm_runtime.Sim.setup ->
   fun mem recorder ->
    let handle = Txn_api.instantiate impl mem recorder ~items in
    List.map (fun s -> (s.pid, program handle s ~outcomes)) specs

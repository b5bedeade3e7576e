(* Synchronization-cost metering: what a TM *pays* to stay on its corner
   of the PCL triangle, derived after the fact from an access log (and
   optionally the history, for commit/abort attribution).

   The metrics follow the cost model of the DAP/TM lower-bound
   literature ("On the Cost of Concurrency in Transactional Memory",
   "Progressive Transactional Memory in Time and Space"):

   - RMRs, cache-coherent model: a step by process [p] on base object
     [o] is a remote memory reference iff [p]'s cached copy of [o] is
     invalid — its first access ever, or some other process applied a
     non-trivial primitive to [o] since [p]'s last access.
   - Expensive synchronization patterns: RMW-class primitives (cas,
     fetch-and-add, trylock, store-conditional) and reads of an object
     whose last non-trivial writer is another process
     (read-after-remote-write — the pattern that forces a cache-line
     transfer even for a trivial step).
   - Protected-data footprint: base objects a transaction applied a
     non-trivial primitive to, against the size of its data set —
     strict DAP keeps the footprint inside the data set; lock-table and
     clock TMs pay for metadata beyond it.
   - Capacity / time for progressive TMs: distinct base objects
     accessed (capacity) and steps taken (time) per transaction.
   - Wasted work: steps burned by transactions that ultimately aborted,
     split by whether the transaction contended with another on some
     base object (the paper's Section-3 contention) — a contended abort
     is the price of a conflict, an uncontended abort is pure
     implementation overhead.

   Everything here is a pure fold over the log: no wall clock, no
   randomness — identical logs yield identical costs, which is what the
   determinism tests pin down. *)

open Tm_base

(** RMW-class primitives: the atomic read-modify-write instructions the
    "laws of order" results show cannot be avoided by strongly
    non-commutative operations. *)
let rmw_class (p : Primitive.t) =
  match p with
  | Primitive.Cas _ | Primitive.Fetch_add _ | Primitive.Try_lock _
  | Primitive.Store_conditional _ ->
      true
  | Primitive.Read | Primitive.Write _ | Primitive.Unlock _
  | Primitive.Load_linked _ ->
      false

type txn_cost = {
  tid : Tid.t;
  steps : int;  (** time: atomic steps attributed to the transaction *)
  rmrs : int;
  rmw_steps : int;
  read_after_remote_write : int;
  footprint : int;  (** protected data: objects accessed non-trivially *)
  capacity : int;  (** distinct base objects accessed *)
  data_items : int;  (** |read set ∪ write set|, 0 without a history *)
  committed : bool;
  aborted : bool;
  contended : bool;  (** contends with some other transaction (Sec. 3) *)
}

type t = {
  steps : int;  (** all steps in the log, attributed or not *)
  rmrs : int;
  rmw_steps : int;
  read_after_remote_write : int;
  footprint_max : int;
  capacity_max : int;
  commits : int;
  aborts : int;
  wasted_steps : int;  (** steps of transactions that aborted *)
  wasted_contended : int;
  wasted_uncontended : int;
  txns : txn_cost list;  (** sorted by tid; [] in merged aggregates *)
}

let zero =
  {
    steps = 0;
    rmrs = 0;
    rmw_steps = 0;
    read_after_remote_write = 0;
    footprint_max = 0;
    capacity_max = 0;
    commits = 0;
    aborts = 0;
    wasted_steps = 0;
    wasted_contended = 0;
    wasted_uncontended = 0;
    txns = [];
  }

(** Pointwise sum (maxima for the footprint/capacity highwater marks);
    per-transaction rows are dropped — a merged cost is an aggregate. *)
let merge a b =
  {
    steps = a.steps + b.steps;
    rmrs = a.rmrs + b.rmrs;
    rmw_steps = a.rmw_steps + b.rmw_steps;
    read_after_remote_write =
      a.read_after_remote_write + b.read_after_remote_write;
    footprint_max = max a.footprint_max b.footprint_max;
    capacity_max = max a.capacity_max b.capacity_max;
    commits = a.commits + b.commits;
    aborts = a.aborts + b.aborts;
    wasted_steps = a.wasted_steps + b.wasted_steps;
    wasted_contended = a.wasted_contended + b.wasted_contended;
    wasted_uncontended = a.wasted_uncontended + b.wasted_uncontended;
    txns = [];
  }

(* per-transaction accumulator *)
type acc = {
  mutable a_steps : int;
  mutable a_rmrs : int;
  mutable a_rmw : int;
  mutable a_rarw : int;
  mutable a_objs : Oid.Set.t;
  mutable a_prot : Oid.Set.t;
}

(* An index walk of the window's columns: no entry records or list
   materialized. *)
let analyse ?history (w : Access_log.window) : t =
  (* invalidation epochs: [ver] counts non-trivial steps per object,
     [seen] the epoch each process last observed per object *)
  let ver : (int, int) Hashtbl.t = Hashtbl.create 32 in
  let seen : (int * int, int) Hashtbl.t = Hashtbl.create 64 in
  let last_writer : (int, int) Hashtbl.t = Hashtbl.create 32 in
  let accs : (int, acc) Hashtbl.t = Hashtbl.create 16 in
  let acc_of tid =
    let k = Tid.to_int tid in
    match Hashtbl.find_opt accs k with
    | Some a -> a
    | None ->
        let a =
          {
            a_steps = 0;
            a_rmrs = 0;
            a_rmw = 0;
            a_rarw = 0;
            a_objs = Oid.Set.empty;
            a_prot = Oid.Set.empty;
          }
        in
        Hashtbl.add accs k a;
        a
  in
  let steps = ref 0
  and rmrs = ref 0
  and rmw = ref 0
  and rarw = ref 0 in
  let { Access_log.log; pos; len; _ } = w in
  for p = pos to pos + len - 1 do
    let pid = Access_log.pid_at log p and o = Access_log.oid_at log p in
    let prim = Access_log.prim_at log p in
    let epoch = Option.value ~default:0 (Hashtbl.find_opt ver o) in
    let remote =
      match Hashtbl.find_opt seen (pid, o) with
      | None -> true (* cold miss: the first access is always remote *)
      | Some last -> last < epoch
    in
    let is_rmw = rmw_class prim in
    let is_rarw =
      Primitive.trivial prim
      &&
      match Hashtbl.find_opt last_writer o with
      | Some w -> w <> pid
      | None -> false
    in
    let epoch' =
      if Primitive.non_trivial prim then begin
        Hashtbl.replace ver o (epoch + 1);
        Hashtbl.replace last_writer o pid;
        epoch + 1
      end
      else epoch
    in
    (* the step leaves [p] holding a valid copy at the new epoch *)
    Hashtbl.replace seen (pid, o) epoch';
    incr steps;
    if remote then incr rmrs;
    if is_rmw then incr rmw;
    if is_rarw then incr rarw;
    let tid = Access_log.tid_int_at log p in
    if tid >= 0 then begin
      let a = acc_of tid in
      a.a_steps <- a.a_steps + 1;
      if remote then a.a_rmrs <- a.a_rmrs + 1;
      if is_rmw then a.a_rmw <- a.a_rmw + 1;
      if is_rarw then a.a_rarw <- a.a_rarw + 1;
      a.a_objs <- Oid.Set.add o a.a_objs;
      if Primitive.non_trivial prim then a.a_prot <- Oid.Set.add o a.a_prot
    end
  done;
  let contended_tids =
    List.fold_left
      (fun s (c : Tm_dap.Contention.contention) ->
        Tid.Set.add (Tid.to_int c.t1) (Tid.Set.add (Tid.to_int c.t2) s))
      Tid.Set.empty (Tm_dap.Contention.all_contentions w)
  in
  let txns =
    Hashtbl.fold
      (fun k (a : acc) rows ->
        let tid = Tid.v k in
        let committed, aborted, data_items =
          match history with
          | None -> (false, false, 0)
          | Some h ->
              ( Tm_trace.History.committed h tid,
                Tm_trace.History.aborted h tid,
                Item.Set.cardinal
                  (Item.Set.union
                     (Tm_trace.History.read_set h tid)
                     (Tm_trace.History.write_set h tid)) )
        in
        {
          tid;
          steps = a.a_steps;
          rmrs = a.a_rmrs;
          rmw_steps = a.a_rmw;
          read_after_remote_write = a.a_rarw;
          footprint = Oid.Set.cardinal a.a_prot;
          capacity = Oid.Set.cardinal a.a_objs;
          data_items;
          committed;
          aborted;
          contended = Tid.Set.mem k contended_tids;
        }
        :: rows)
      accs []
    |> List.sort (fun t1 t2 -> Tid.compare t1.tid t2.tid)
  in
  List.fold_left
    (fun c (tc : txn_cost) ->
      let c =
        {
          c with
          footprint_max = max c.footprint_max tc.footprint;
          capacity_max = max c.capacity_max tc.capacity;
          commits = (c.commits + if tc.committed then 1 else 0);
          aborts = (c.aborts + if tc.aborted then 1 else 0);
        }
      in
      if tc.aborted then
        {
          c with
          wasted_steps = c.wasted_steps + tc.steps;
          wasted_contended =
            (c.wasted_contended + if tc.contended then tc.steps else 0);
          wasted_uncontended =
            (c.wasted_uncontended + if tc.contended then 0 else tc.steps);
        }
      else c)
    {
      zero with
      steps = !steps;
      rmrs = !rmrs;
      rmw_steps = !rmw;
      read_after_remote_write = !rarw;
      txns;
    }
    txns

(* ------------------------------------------------------------------ *)
(* Telemetry registration: fold a cost into the default sink so watch
   snapshots and `pcl_tm report` see the same numbers. *)

let register ?(labels = []) (c : t) =
  let open Tm_obs in
  Sink.add ~labels "cost_steps_total" c.steps;
  Sink.add ~labels "cost_rmr_total" c.rmrs;
  Sink.add ~labels "cost_rmw_total" c.rmw_steps;
  Sink.add ~labels "cost_rarw_total" c.read_after_remote_write;
  Sink.add
    ~labels:(("cause", "contended") :: labels)
    "cost_wasted_steps_total" c.wasted_contended;
  Sink.add
    ~labels:(("cause", "uncontended") :: labels)
    "cost_wasted_steps_total" c.wasted_uncontended;
  List.iter
    (fun (tc : txn_cost) ->
      Sink.observe ~labels "cost_txn_footprint"
        (float_of_int tc.footprint);
      Sink.observe ~labels "cost_txn_capacity" (float_of_int tc.capacity);
      Sink.observe ~labels "cost_txn_steps" (float_of_int tc.steps))
    c.txns

let pp_txn ppf (tc : txn_cost) =
  Fmt.pf ppf
    "%s steps=%d rmrs=%d rmw=%d rarw=%d footprint=%d capacity=%d data=%d%s%s"
    (Tid.name tc.tid) tc.steps tc.rmrs tc.rmw_steps
    tc.read_after_remote_write tc.footprint tc.capacity tc.data_items
    (if tc.committed then " committed"
     else if tc.aborted then " aborted"
     else "")
    (if tc.contended then " contended" else "")

(* Running the proof's transactions against a TM under scripted schedules.
   Every execution is replayed from the initial configuration C0, so
   configurations are identified with schedule prefixes. *)

open Tm_base
open Tm_runtime
open Tm_impl

type run = {
  sim : Sim.result;
  outcomes : (Tid.t, Static_txn.outcome) Hashtbl.t;
}

let default_budget = 50_000

let world = Static_txn.setup Txns.specs

(** Replay [schedule] from C0 with all seven transactions spawned. *)
let run (impl : Tm_intf.impl) (schedule : Schedule.atom list) : run =
  let outcomes = Hashtbl.create 16 in
  { sim = Sim.replay ~budget:default_budget (world impl outcomes) schedule;
    outcomes }

let outcome r tid = Hashtbl.find_opt r.outcomes tid

let committed r tid =
  match outcome r tid with
  | Some o -> o.Static_txn.status = Static_txn.Committed
  | None -> false

(** Value transaction [tid] read for [x] in this run, if it got that far. *)
let read_of r tid x =
  Option.bind (outcome r tid) (fun o -> Static_txn.read_value o x)

let stopped_normally r =
  match r.sim.Sim.report.Schedule.stop with
  | Schedule.Completed -> true
  | Schedule.Budget_exhausted _ | Schedule.Crashed _ -> false

(* [pid]'s steps in the run's flat log, as indices in step order: a
   backwards scan of the pid column, from the process's last step *)
let pid_steps r pid =
  let log = Memory.log r.sim.Sim.mem in
  let rec go i acc =
    if i < 0 then acc
    else go (i - 1) (if Access_log.pid_at log i = pid then i :: acc else acc)
  in
  (log, go (Access_log.last_index_by_pid log pid) [])

(** The [n]-th step (1-based) taken by [pid] in the run's log. *)
let nth_step_of_pid r pid n : Access_log.entry option =
  let log, steps = pid_steps r pid in
  if n < 1 then None
  else Option.map (Access_log.get log) (List.nth_opt steps (n - 1))

(** Steps taken by [pid], as (oid, primitive, response) triples — used for
    the indistinguishability comparison. *)
let step_signature r pid =
  let log, steps = pid_steps r pid in
  List.map
    (fun i ->
      (Access_log.oid_at log i, Access_log.prim_at log i,
       Access_log.response_at log i))
    steps

(** Objects on which [pid] applied a trivial (read) primitive. *)
let objects_read_by r pid : Oid.Set.t =
  let log, steps = pid_steps r pid in
  List.fold_left
    (fun acc i ->
      if Primitive.trivial (Access_log.prim_at log i) then
        Oid.Set.add (Access_log.oid_at log i) acc
      else acc)
    Oid.Set.empty steps

(** Does the sub-execution of [pid] contain a non-trivial primitive on
    [oid]? *)
let nontrivial_on r pid oid =
  let log, steps = pid_steps r pid in
  List.exists
    (fun i ->
      Oid.equal (Access_log.oid_at log i) oid
      && Primitive.non_trivial (Access_log.prim_at log i))
    steps

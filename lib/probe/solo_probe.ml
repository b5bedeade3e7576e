(* The solo-progress probe: Section 3 defines obstruction-freedom by solo
   runs, and Section 4's existence argument for the critical steps s1
   and s2 is the same experiment.  Run the enemy k solo steps, suspend
   it, then run the probe solo, for every suspension depth k of the
   enemy's own solo run.  Every liveness consumer of the workbench is a
   reading of these points: the liveness class, verdict's L leg, the T-E
   profiles, lint's pwf and figure-consistency probes, and the
   critical-step search. *)

open Tm_base
open Tm_runtime
open Tm_impl

type entry = {
  specs : Static_txn.spec list;
  prefix : Schedule.atom list;
  enemy : int;
  probe : int;
  budget : int;
}

type outcome = Commit | Abort | Unfinished of Schedule.stop

type point = {
  k : int;
  schedule : Schedule.atom list;
  run : Sim.result;
  outcomes : (Tid.t, Static_txn.outcome) Hashtbl.t;
  outcome : outcome;
}

type t = { solo : Sim.result; n : int; point : int -> point }

let scan impl (e : entry) : t =
  let world = Static_txn.setup e.specs impl in
  let replay schedule =
    let outcomes = Hashtbl.create 16 in
    (Sim.replay ~budget:e.budget (world outcomes) schedule, outcomes)
  in
  let solo, _ = replay (e.prefix @ [ Schedule.Until_done e.enemy ]) in
  let probe = List.find (fun s -> s.Static_txn.pid = e.probe) e.specs in
  let point k =
    let schedule =
      e.prefix @ [ Schedule.Steps (e.enemy, k); Schedule.Until_done e.probe ]
    in
    let run, outcomes = replay schedule in
    let outcome =
      match Hashtbl.find_opt outcomes probe.Static_txn.tid with
      | Some { Static_txn.status = Static_txn.Committed; _ } -> Commit
      | Some { Static_txn.status = Static_txn.Aborted; _ } -> Abort
      | _ -> Unfinished run.Sim.report.Schedule.stop
    in
    { k; schedule; run; outcomes; outcome }
  in
  { solo; n = solo.Sim.steps_of e.enemy; point }

let points ?(from = 0) t =
  Seq.map t.point (Seq.init (max 0 (t.n - from + 1)) (( + ) from))

let first_failure points =
  Seq.find (fun p -> match p.outcome with Commit -> false | _ -> true) points

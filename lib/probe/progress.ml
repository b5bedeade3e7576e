(* The liveness profile (T-E): suspend a 2-item writer at *every* point of
   its solo run and probe whether another transaction can still finish
   solo — once with a conflicting probe (obstruction-freedom in the
   paper's sense: contention exists, progress may legitimately require
   aborting someone, but must happen) and once with a disjoint probe
   (where strict DAP alone should guarantee progress).

   The outcome distribution over all suspension points is each TM's
   progress fingerprint:
     - blocking TMs (tl-lock, tl2-clock) stall the conflicting probe on a
       window of suspension points;
     - obstruction-free TMs never stall, though they may abort;
     - strictly DAP TMs never even disturb the disjoint probe. *)

open Tm_base
open Tm_runtime
open Tm_impl

type outcome = Commit | Abort | Stall

type profile = {
  points : int;  (** suspension points probed *)
  commits : int;
  aborts : int;
  stalls : int;
}

let x = Item.v "x"
let y = Item.v "y"
let z = Item.v "z"

let blocker =
  { Static_txn.tid = Tid.v 50; pid = 50; reads = [];
    writes = [ (x, Value.int 5); (y, Value.int 5) ] }

let conflicting_probe =
  { Static_txn.tid = Tid.v 51; pid = 51; reads = [ x ];
    writes = [ (x, Value.int 6) ] }

let disjoint_probe =
  { Static_txn.tid = Tid.v 52; pid = 52; reads = [ z ];
    writes = [ (z, Value.int 7) ] }

let specs = [ blocker; conflicting_probe; disjoint_probe ]

let setup impl outcomes : Sim.setup =
 fun mem recorder ->
  let handle =
    Txn_api.instantiate impl mem recorder ~items:(Static_txn.items_of specs)
  in
  List.map
    (fun s -> (s.Static_txn.pid, Static_txn.program handle s ~outcomes))
    specs

let probe_once impl ~suspend_at ~probe_pid ~probe_tid : outcome =
  let outcomes = Hashtbl.create 4 in
  let r =
    Sim.replay ~budget:1_000 (setup impl outcomes)
      [ Schedule.Steps (50, suspend_at); Schedule.Until_done probe_pid ]
  in
  match r.Sim.report.Schedule.stop with
  | Schedule.Budget_exhausted _ -> Stall
  | Schedule.Crashed _ -> Stall
  | Schedule.Completed -> (
      match Hashtbl.find_opt outcomes (Tid.v probe_tid) with
      | Some o when o.Static_txn.status = Static_txn.Committed -> Commit
      | Some _ -> Abort
      | None -> Stall)

(** Probe every suspension point of the blocker's solo run. *)
let run (impl : Tm_intf.impl) ~(disjoint : bool) : profile =
  let (module M : Tm_intf.S) = impl in
  let labels =
    [ ("tm", M.name);
      ("probe", (if disjoint then "disjoint" else "conflicting")) ]
  in
  Tm_obs.Sink.span ~labels "probe.progress" (fun () ->
      let solo_outcomes = Hashtbl.create 4 in
      let solo =
        Sim.replay ~budget:5_000 (setup impl solo_outcomes)
          [ Schedule.Until_done 50 ]
      in
      (* a blocker that takes no step is still probed once, before it *)
      let n = max 1 (solo.Sim.steps_of 50) in
      let probe_pid, probe_tid = if disjoint then (52, 52) else (51, 51) in
      let profile = { points = n; commits = 0; aborts = 0; stalls = 0 } in
      let profile =
        List.fold_left
          (fun acc k ->
            match probe_once impl ~suspend_at:k ~probe_pid ~probe_tid with
            | Commit -> { acc with commits = acc.commits + 1 }
            | Abort -> { acc with aborts = acc.aborts + 1 }
            | Stall -> { acc with stalls = acc.stalls + 1 })
          profile
          (List.init n (fun k -> k))
      in
      Tm_obs.Sink.add ~labels "probe_progress_points_total" profile.points;
      Tm_obs.Sink.add ~labels "probe_progress_commits_total" profile.commits;
      Tm_obs.Sink.add ~labels "probe_progress_aborts_total" profile.aborts;
      Tm_obs.Sink.add ~labels "probe_progress_stalls_total" profile.stalls;
      profile)

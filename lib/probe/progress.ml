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
open Tm_impl

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

(* every probe runs in the world of all three transactions *)
let entry ~disjoint : Solo_probe.entry =
  {
    specs = [ blocker; conflicting_probe; disjoint_probe ];
    prefix = [];
    enemy = 50;
    probe = (if disjoint then 52 else 51);
    budget = 1_000;
  }

(** Probe every suspension point of the blocker's solo run. *)
let run (impl : Tm_intf.impl) ~(disjoint : bool) : profile =
  let (module M : Tm_intf.S) = impl in
  let labels =
    [ ("tm", M.name);
      ("probe", (if disjoint then "disjoint" else "conflicting")) ]
  in
  Tm_obs.Sink.span ~labels "probe.progress" (fun () ->
      let scan = Solo_probe.scan impl (entry ~disjoint) in
      (* a blocker that takes no step is still probed once, before it *)
      let n = max 1 scan.Solo_probe.n in
      let profile =
        Seq.fold_left
          (fun acc (p : Solo_probe.point) ->
            match p.outcome with
            | Solo_probe.Commit -> { acc with commits = acc.commits + 1 }
            | Solo_probe.Abort -> { acc with aborts = acc.aborts + 1 }
            | Solo_probe.Unfinished _ -> { acc with stalls = acc.stalls + 1 })
          { points = n; commits = 0; aborts = 0; stalls = 0 }
          (Seq.take n (Solo_probe.points scan))
      in
      Tm_obs.Sink.add ~labels "probe_progress_points_total" profile.points;
      Tm_obs.Sink.add ~labels "probe_progress_commits_total" profile.commits;
      Tm_obs.Sink.add ~labels "probe_progress_aborts_total" profile.aborts;
      Tm_obs.Sink.add ~labels "probe_progress_stalls_total" profile.stalls;
      profile)

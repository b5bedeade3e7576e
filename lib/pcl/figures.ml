(* Text rendering of the paper's Figures 1-6 from a claims report:
   the critical-step searches (Figs 1-2), the schedules of beta and beta'
   (Figs 3-4), and the per-process read/write tables (Figs 5-6). *)

open Tm_base
open Tm_impl

let pp_step ppf (e : Tm_base.Access_log.entry) =
  Fmt.pf ppf "step #%d of p%d: oid %d %a -> %a" e.index e.pid
    (Oid.to_int e.oid) Primitive.pp_compact e.prim Value.pp_compact
    e.response

let pp_fig12 ppf (which : [ `Fig1 | `Fig2 ]) (c : Constructions.t) =
  let flip, k, writer, reader, item =
    match which with
    | `Fig1 -> (c.Constructions.flip1, c.Constructions.k1, 1, 3, "b1")
    | `Fig2 -> (c.Constructions.flip2, c.Constructions.k2, 2, 5, "b2")
  in
  Fmt.pf ppf
    "s%d = step %d/%d of T%d's solo run; before it T%d reads %s=%a, after \
     it %s=%a@\n  s%d is %a"
    writer k flip.Critical_step.writer_total writer reader item
    Value.pp_compact flip.Critical_step.before item Value.pp_compact
    flip.Critical_step.after writer pp_step flip.Critical_step.step

let pp_schedule_line ppf (name, atoms) =
  Fmt.pf ppf "%-6s = %a" name Tm_runtime.Schedule.pp atoms

(** One row of Figure 5/6: "T3  b1:1 b4:0 | b3(1) c3(1) e1_3(1) e3_4(1)  C" *)
let pp_txn_row (side : Claims.side) ppf (spec : Static_txn.spec) =
  let tid = spec.Static_txn.tid in
  let r = side.Claims.run in
  match Harness.outcome r tid with
  | None -> Fmt.pf ppf "%-3s (did not run)" (Tid.name tid)
  | Some o ->
      let reads =
        List.map
          (fun (x, v) -> Fmt.str "%s:%a" (Item.name x) Value.pp_compact v)
          o.Static_txn.read_values
      in
      let writes =
        List.map
          (fun (x, v) -> Fmt.str "%s(%a)" (Item.name x) Value.pp_compact v)
          spec.Static_txn.writes
      in
      let status =
        match o.Static_txn.status with
        | Static_txn.Committed -> "C"
        | Static_txn.Aborted -> "A"
        | Static_txn.Unstarted -> "?"
      in
      Fmt.pf ppf "%-3s %-28s | %-44s %s" (Tid.name tid)
        (String.concat " " reads)
        (String.concat " " writes)
        status

let pp_table tids (side : Claims.side) ppf () =
  List.iter
    (fun t -> Fmt.pf ppf "  %a@\n" (pp_txn_row side) (Txns.spec_of (Tid.v t)))
    tids

let pp_check ppf (c : Claims.value_check) =
  Fmt.pf ppf "%-24s expected %a, got %a  %s" c.Claims.label Value.pp_compact
    c.Claims.expected
    Fmt.(option ~none:(any "-") Value.pp_compact)
    c.Claims.got
    (if c.Claims.ok then "ok" else "** MISMATCH **")

(* ------------------------------------------------------------------ *)
(* Per-process lane rendering: the visual layout of the paper's
   Figures 5-6 — one lane per process, segments in schedule order with
   the single adversarial steps s1/s2 marked. *)

let segment_label (run : Harness.run) (atom : Tm_runtime.Schedule.atom)
    (steps : int) : int * string =
  match atom with
  | Tm_runtime.Schedule.Steps (pid, 1) -> (pid, Printf.sprintf "[s:p%d]" pid)
  | Tm_runtime.Schedule.Steps (pid, _) ->
      (pid, Printf.sprintf "[T%d^%d]" pid steps)
  | Tm_runtime.Schedule.Until_done pid ->
      let status =
        match Harness.outcome run (Tid.v pid) with
        | Some o -> (
            match o.Static_txn.status with
            | Static_txn.Committed -> "C"
            | Static_txn.Aborted -> "A"
            | Static_txn.Unstarted -> "?")
        | None -> "?"
      in
      (pid, Printf.sprintf "[T%d..%s]" pid status)
  | Tm_runtime.Schedule.Crash pid -> (pid, Printf.sprintf "[X:p%d]" pid)
  | Tm_runtime.Schedule.Park pid -> (pid, Printf.sprintf "[zz:p%d]" pid)
  | Tm_runtime.Schedule.Unpark pid -> (pid, Printf.sprintf "[wk:p%d]" pid)
  | Tm_runtime.Schedule.Poison pid -> (pid, Printf.sprintf "[px:p%d]" pid)

(** Render the schedule of a side as per-process lanes. *)
let pp_lanes ppf ((side : Claims.side), (atoms : Tm_runtime.Schedule.atom list))
    =
  let run = side.Claims.run in
  let steps = run.Harness.sim.Tm_runtime.Sim.report.Tm_runtime.Schedule.steps_per_atom in
  let rec pad l n = if List.length l >= n then l else pad (l @ [ 0 ]) n in
  let steps = pad steps (List.length atoms) in
  let segments = List.map2 (fun a s -> segment_label run a s) atoms steps in
  let pids =
    List.sort_uniq compare (List.map (fun (pid, _) -> pid) segments)
  in
  List.iter
    (fun pid ->
      Fmt.pf ppf "  p%d " pid;
      List.iter
        (fun (p, label) ->
          if p = pid then Fmt.string ppf label
          else Fmt.string ppf (String.make (String.length label) '.'))
        segments;
      Fmt.pf ppf "@\n")
    pids

let pp_report ppf (r : Claims.report) =
  Fmt.pf ppf "=== PCL construction against %s ===@\n" r.Claims.impl_name;
  match r.Claims.outcome with
  | Error f ->
      Fmt.pf ppf "construction stopped: %a@\n" Constructions.pp_failure f
  | Ok d ->
      let c = d.Claims.cons in
      Fmt.pf ppf "-- Figure 1 --@\n%a@\n" (fun ppf () -> pp_fig12 ppf `Fig1 c) ();
      Fmt.pf ppf "-- Figure 2 --@\n%a@\n" (fun ppf () -> pp_fig12 ppf `Fig2 c) ();
      Fmt.pf ppf "-- Figure 3 --@\n%a@\n" pp_schedule_line
        ("beta", Constructions.beta c);
      Fmt.pf ppf "-- Figure 4 --@\n%a@\n" pp_schedule_line
        ("beta'", Constructions.beta' c);
      Fmt.pf ppf "claim 1 (commit invoked in alpha1): %b@\n" d.Claims.claim1;
      Fmt.pf ppf "claim 2 (s1 non-trivial %b; o1 read by T3 after/before s1 \
                  %b/%b; s2 non-trivial %b)@\n"
        d.Claims.claim2_s1_nontrivial d.Claims.claim2_o1_read_by_t3
        d.Claims.claim2_o1_read_by_t3' d.Claims.claim2_s2_nontrivial;
      Fmt.pf ppf "claim 3 (o1 <> o2): %b   premises: s1 stable %b, alpha2 \
                  non-interfering %b@\n"
        d.Claims.claim3 d.Claims.premise_s1_stable
        d.Claims.premise_alpha2_noninterfering;
      Fmt.pf ppf "-- Figure 5 (values read in beta) --@\n";
      pp_lanes ppf (d.Claims.beta, Constructions.beta c);
      Fmt.pf ppf "%a" (pp_table [ 1; 2; 3; 4; 7 ] d.Claims.beta) ();
      List.iter (fun c -> Fmt.pf ppf "  %a@\n" pp_check c)
        d.Claims.beta.Claims.checks;
      Fmt.pf ppf "-- Figure 6 (values read in beta') --@\n";
      pp_lanes ppf (d.Claims.beta', Constructions.beta' c);
      Fmt.pf ppf "%a" (pp_table [ 1; 2; 5; 6; 7 ] d.Claims.beta') ();
      List.iter (fun c -> Fmt.pf ppf "  %a@\n" pp_check c)
        d.Claims.beta'.Claims.checks;
      (match d.Claims.indistinguishable_p7 with
      | Ok () ->
          Fmt.pf ppf "alpha7 and alpha7' are indistinguishable to p7@\n"
      | Error why -> Fmt.pf ppf "p7 distinguishes the executions: %s@\n" why);
      Fmt.pf ppf "contradiction reached: %b@\n" d.Claims.contradiction

(* ------------------------------------------------------------------ *)
(* Flight-recorder timeline rendering (`pcl_tm figures --render`):
   re-execute each figure's schedule with a recorder installed and draw
   per-process step lanes with the critical steps s1/s2 highlighted. *)

let record_run (impl : Tm_intf.impl)
    (atoms : Tm_runtime.Schedule.atom list) : Harness.run * Tm_trace.Flight.t
    =
  let fl = Tm_trace.Flight.create () in
  let run =
    Tm_trace.Flight.with_recorder fl (fun () -> Harness.run impl atoms)
  in
  Tm_trace.Flight.set_meta fl "tm" (Registry.name impl);
  (run, fl)

(** Replay a schedule under a fresh recorder and render its timeline;
    [highlight_steps] picks the steps to mark, given the finished run. *)
let render_timeline ?width (impl : Tm_intf.impl)
    (atoms : Tm_runtime.Schedule.atom list)
    ~(highlight_steps : Harness.run -> int list) : string =
  let run, fl = record_run impl atoms in
  Tm_trace.Timeline.render_flight ?width ~highlight:(highlight_steps run) fl

(** Figures 1-6 as per-process timeline art.  The critical steps are
    located by ordinal — s1 is the k1-th step of p1, s2 the k2-th step of
    p2 — which is stable across the different schedules they appear in. *)
let render_constructions ?width (c : Constructions.t) : string =
  let impl = c.Constructions.impl in
  let s_of run pid k =
    match Harness.nth_step_of_pid run pid k with
    | Some (e : Access_log.entry) -> [ e.Access_log.index ]
    | None -> []
  in
  let s1 run = s_of run 1 c.Constructions.k1 in
  let s2 run = s_of run 2 c.Constructions.k2 in
  let fig title atoms highlight_steps =
    Printf.sprintf "-- %s --\n%s" title
      (render_timeline ?width impl atoms ~highlight_steps)
  in
  String.concat "\n"
    [
      fig "Figure 1 (top): alpha1 . s1 . alpha3, s1 highlighted"
        (Constructions.alpha1_s1_alpha3 c)
        s1;
      fig "Figure 1 (bottom): alpha1 . alpha3', s1 not taken"
        (Constructions.alpha1_alpha3' c)
        (fun _ -> []);
      fig "Figure 2: alpha1 . alpha2 . s2 . alpha5, s2 highlighted"
        (Constructions.alpha1 c @ Constructions.alpha2 c
        @ [ Constructions.s2_atom; Tm_runtime.Schedule.Until_done 5 ])
        s2;
      fig "Figure 3/5: beta, s1 and s2 highlighted"
        (Constructions.beta c)
        (fun run -> s1 run @ s2 run);
      fig "Figure 4/6: beta', s2 and s1 highlighted"
        (Constructions.beta' c)
        (fun run -> s1 run @ s2 run);
    ]


(* pcl_tm — the command-line front end of the workbench.

     pcl_tm list                          available TMs, checkers, anomalies
     pcl_tm verdict [-t TM]               triangle verdict(s)
     pcl_tm figures [-t TM]               full proof-construction report
     pcl_tm anomalies                     anomaly x checker matrix
     pcl_tm check -a ANOMALY [-c CHECKER] run checkers on a catalogue history
     pcl_tm explore -t TM                 exhaustive interleavings of a small
                                          conflicting workload, with the
                                          strongest condition each satisfies
     pcl_tm lint [TRACE..] [-t TM]        pclsan: happens-before and lint
                                          passes over dumped artifacts or
                                          live recorded runs
*)

open Core
open Cmdliner

let width_arg =
  Arg.(
    value & opt int 72
    & info [ "width" ] ~docv:"COLS" ~doc:"Timeline band width in columns.")

(* ------------------------------------------------------------------ *)

let list_cmd =
  let run () =
    (* the corner each TM claims, as its contract declares it *)
    let corner (c : Tm_intf.contract) =
      Printf.sprintf "%s, %s, %s"
        (if c.strict_dap then "strict DAP" else "not strict DAP")
        c.condition
        (Liveness_class.cls_to_string c.liveness)
    in
    Format.printf "TM implementations (claimed corner, then mechanism):@.";
    List.iter
      (fun (module M : Tm_intf.S) ->
        Format.printf "  %-14s %s@.  %-14s %s@." M.name (corner M.contract) ""
          M.describe)
      Registry.all;
    Format.printf "@.Consistency checkers:@.";
    List.iter
      (fun (c : Spec.checker) -> Format.printf "  %s@." c.Spec.name)
      Checkers.all;
    Format.printf "@.Anomaly histories:@.";
    List.iter
      (fun (a : Anomalies.anomaly) ->
        Format.printf "  %-28s %s@." a.Anomalies.name a.Anomalies.description)
      Anomalies.catalogue
  in
  Cmd.v (Cmd.info "list" ~doc:"List TMs, checkers and anomaly histories.")
    Term.(const run $ const ())

let verdict_cmd =
  let run tm =
    List.iter
      (fun impl ->
        let v = Pcl_verdict.assess impl in
        Format.printf "%a@.@." Pcl_verdict.pp v)
      (Sweep.impls_of tm)
  in
  Cmd.v
    (Cmd.info "verdict"
       ~doc:"Run the PCL harness and report the P/C/L triangle verdict.")
    Term.(const run $ Sweep.tm)

let figures_cmd =
  let render =
    Arg.(
      value & flag
      & info [ "render" ]
          ~doc:
            "Render Figures 1-6 as per-process timeline art (flight-recorder \
             replays with the critical steps s1/s2 highlighted) instead of \
             the textual claims report.")
  in
  let run tm render width =
    List.iter
      (fun impl ->
        if render then begin
          let (module M : Tm_intf.S) = impl in
          match Pcl_constructions.build impl with
          | Error f ->
              Format.printf "=== %s: construction stopped: %a@.@." M.name
                Pcl_constructions.pp_failure f
          | Ok c ->
              Format.printf "=== PCL figures for %s ===@.%s@." M.name
                (Pcl_figures.render_constructions ~width c)
        end
        else
          let report = Pcl_claims.analyse impl in
          Format.printf "%a@." Pcl_figures.pp_report report)
      (Sweep.impls_of tm)
  in
  Cmd.v
    (Cmd.info "figures"
       ~doc:
         "Re-enact the proof construction (Figures 1-6, Claims 1-5) against \
          a TM; $(b,--render) draws them as step-level timelines.")
    Term.(const run $ Sweep.tm $ render $ width_arg)

let anomalies_cmd =
  let run () =
    List.iter
      (fun (a : Anomalies.anomaly) ->
        Format.printf "%-28s satisfies: %s@." a.Anomalies.name
          (String.concat ", " (Checkers.satisfied a.Anomalies.history)))
      Anomalies.catalogue
  in
  Cmd.v
    (Cmd.info "anomalies"
       ~doc:"Evaluate every checker on the anomaly catalogue.")
    Term.(const run $ const ())

let checker_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "c"; "checker" ] ~docv:"CHECKER"
        ~doc:"Checker name (default: all).")

let explain_arg =
  Arg.(
    value & flag
    & info [ "explain" ]
        ~doc:
          "When a checker answers sat, print the witness serialization it \
           found (supported for serializability, snapshot-isolation, \
           processor-consistency, pram and weak-adaptive).")

let run_checkers history checker explain =
  let checkers =
    match checker with
    | None -> Checkers.all
    | Some n -> [ Checkers.find_exn n ]
  in
  List.iter
    (fun (c : Spec.checker) ->
      let v = c.Spec.check history in
      Format.printf "  %-26s %a@." c.Spec.name Spec.pp_verdict v;
      if explain && Spec.sat v then
        match Checkers.explain c.Spec.name history with
        | Some w -> Format.printf "%a@." Witness.pp w
        | None -> ())
    checkers

let check_cmd =
  let anomaly =
    Arg.(
      required
      & opt (some string) None
      & info [ "a"; "anomaly" ] ~docv:"NAME" ~doc:"Catalogue history name.")
  in
  let run anomaly checker explain =
    let a =
      try Anomalies.find anomaly
      with Not_found -> Fmt.failwith "unknown anomaly %S" anomaly
    in
    Format.printf "%s: %s@.@.%a@.@." a.Anomalies.name a.Anomalies.description
      History.pp a.Anomalies.history;
    run_checkers a.Anomalies.history checker explain
  in
  Cmd.v
    (Cmd.info "check" ~doc:"Run consistency checkers on a catalogue history.")
    Term.(const run $ anomaly $ checker_arg $ explain_arg)

let check_file_cmd =
  let file =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"FILE"
          ~doc:
            "History in the wire format: invocations +b1\\@2 +r1(x) \
             +w1(x)=5 +c1 +a1; responses -ok1 -v1=0 -C1 -A1; '#' comments.")
  in
  let run file checker explain =
    let ic = open_in file in
    let n = in_channel_length ic in
    let text = really_input_string ic n in
    close_in ic;
    match Wire.parse text with
    | Error msg -> Fmt.failwith "parse error: %s" msg
    | Ok history -> (
        match History.well_formed history with
        | Error msg -> Fmt.failwith "ill-formed history: %s" msg
        | Ok () ->
            Format.printf "%a@.@." History.pp history;
            run_checkers history checker explain)
  in
  Cmd.v
    (Cmd.info "check-file"
       ~doc:"Run consistency checkers on a history from a file.")
    Term.(const run $ file $ checker_arg $ explain_arg)

let liveness_cmd =
  let run tm =
    List.iter
      (fun impl ->
        let (module M : Tm_intf.S) = impl in
        let r = Liveness_class.classify impl in
        Format.printf "%-12s %-18s %s@." M.name
          (Liveness_class.cls_to_string r.Liveness_class.cls)
          r.Liveness_class.evidence)
      (Sweep.impls_of tm)
  in
  Cmd.v
    (Cmd.info "liveness"
       ~doc:
         "Classify each TM's liveness empirically (wait-free / lock-free / \
          obstruction-free / blocking) with probe witnesses, including the \
          adaptive commit-avoiding adversary that exhibits DSTM's \
          mutual-abort livelock.")
    Term.(const run $ Sweep.tm)

let lint_flag =
  Arg.(
    value & flag
    & info [ "lint" ]
        ~doc:
          "Run the pclsan trace passes (race, strict-dap, of-stall, \
           anomalies) on every execution; findings outside the TM's \
           expected set count as violations (see `pcl_tm lint').")

let por_flag =
  Arg.(
    value
    & vflag true
        [
          ( true,
            info [ "por" ]
              ~doc:
                "Sleep-set dynamic partial-order reduction: skip \
                 interleavings that only reorder independent steps \
                 (default).  The set of consistency verdicts is \
                 unchanged; node and execution counts shrink." );
          ( false,
            info [ "no-por" ]
              ~doc:
                "Disable partial-order reduction and enumerate every \
                 interleaving naively (the pre-reduction engine's exact \
                 behaviour)." );
        ])

(** The pclsan trace passes over one simulated run. *)
let lint_sim ~data_sets ~tm ~log (r : Sim.result) =
  Lints.run_passes Lint_passes.trace_passes
    {
      Lint.log;
      history = r.Sim.history;
      name_of = Memory.name_of r.Sim.mem;
      data_sets = Some data_sets;
      tm = Some tm;
      meta = [];
    }

(** Sweep the standard writer/reader pair ({!Explore_sweep}) on one TM.
    With [dump_dir], the first execution satisfying nothing at all is
    dumped as a trace artifact; with [lint], the pclsan trace passes run
    on every execution and the number of executions with unexpected
    findings is returned. *)
let run_explore ?dump_dir ?(lint = false) ?(por = true)
    ?(on_progress = fun () -> ()) impl :
    (string * int) list * Explorer.stats * string list * int =
  let name = Registry.name impl in
  let dumped = ref [] and lint_unexpected = ref 0 in
  let profiles, stats =
    Sweep.recording dump_dir (fun dump ->
        let on_execution ~strongest (r : Sim.result) =
          on_progress ();
          let log = Access_log.whole (Memory.log r.Sim.mem) in
          (match dump with
          | Some dump when strongest = "none" && !dumped = [] ->
              (* even the weakest condition rejects this execution; its
                 unsat core is the provenance to attach *)
              let weakest =
                List.nth Checkers.all (List.length Checkers.all - 1)
              in
              let verdicts =
                Provenance.of_unsat ~log weakest r.Sim.history
                |> Option.map Provenance.to_flight
                |> Option.to_list
              in
              dumped :=
                [
                  dump ~verdicts ("explore-" ^ name)
                    [ ("tm", name); ("workload", "explore") ];
                ]
          | _ -> ());
          if
            lint
            && (lint_sim ~data_sets:Explore_sweep.data_sets ~tm:name ~log r)
                 .Lints.unexpected
               <> []
          then incr lint_unexpected
        in
        Explore_sweep.run ~por ~on_execution impl)
  in
  (profiles, stats, !dumped, !lint_unexpected)

let explore_cmd =
  let seed =
    Sweep.seed
      "Sweep seed, stamped into the JSONL rows.  The sweep itself is \
       exhaustive and deterministic — every seed yields the same verdict \
       profile."
  in
  let run tm dump_dir lint por seed out =
    let violations = ref 0 and executions = ref 0 in
    let impls = Sweep.impls_of tm in
    Sweep.run out ~label:"explore" ~every:200 ~name:Registry.name impls
      ~row:(fun ~tick impl ->
        let name = Registry.name impl in
        let profiles, stats, dumped, lint_unexpected =
          run_explore ?dump_dir ~lint ~por ~on_progress:tick impl
        in
        executions := !executions + stats.Explorer.executions;
        List.iter
          (fun (p, n) -> if p = "none" then violations := !violations + n)
          profiles;
        if lint then violations := !violations + lint_unexpected;
        ( [
            Obs_json.to_string
              (Explore_sweep.row_json ~tm:name ~seed (profiles, stats));
          ],
          fun ppf ->
            Format.fprintf ppf
              "%s: %d complete interleavings (%d nodes%s%s), strongest \
               condition satisfied:@."
              name stats.Explorer.executions stats.Explorer.nodes
              (if por then
                 Printf.sprintf ", %d sleep-set prunes, %d replays"
                   stats.Explorer.sleep_pruned stats.Explorer.replays
               else "")
              (if stats.Explorer.truncated then ", truncated" else "");
            List.iter
              (fun (p, n) -> Format.fprintf ppf "  %-26s %d executions@." p n)
              profiles;
            if lint then
              Format.fprintf ppf "  %-26s %d executions@." "unexpected-lint"
                lint_unexpected;
            List.iter
              (Format.fprintf ppf "  violating trace dumped to %s@.")
              dumped ))
      ~footer:(fun () ->
        ( [],
          fun ppf ->
            if !violations > 0 then
              Format.fprintf ppf
                "%d execution(s) satisfy no consistency condition at all@."
                !violations ))
      ~reason:(fun () ->
        if !violations = 0 then None
        else
          Some
            (Reason.No_consistency
               {
                 failing = !violations;
                 executions = !executions;
                 tms = List.map Registry.name impls;
               }))
  in
  Cmd.v
    (Cmd.info "explore"
       ~doc:
         "Enumerate the interleavings of a writer/reader pair and classify \
          each execution by the strongest condition it satisfies.  \
          Sleep-set partial-order reduction prunes interleavings that only \
          reorder independent steps ($(b,--no-por) enumerates all of them \
          naively; the verdict set is identical either way).  Exits \
          non-zero if some execution satisfies nothing; with $(b,--record) \
          the first such execution is dumped as a replayable trace; with \
          $(b,--lint) the pclsan trace passes run on every execution.")
    Term.(
      const run $ Sweep.tm $ Sweep.dump_dir $ lint_flag $ por_flag $ seed
      $ Sweep.out)

let trace_cmd =
  let schedule_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"SCHEDULE"
          ~doc:
            "Comma-separated schedule over the paper's T1..T7, e.g. \
             'p1:7,p2:7,p1:1,p3:*,p4:*,p2:1,p7:*' — 'pN:K' runs K steps of \
             process N, 'pN:*' runs it until its transaction finishes.")
  in
  let show_log =
    Arg.(value & flag & info [ "log" ] ~doc:"Also dump the step-level access log.")
  in
  let run tm schedule show_log =
    let impl =
      match tm with
      | Some n -> Registry.find_exn n
      | None -> Registry.find_exn "candidate"
    in
    let (module M : Tm_intf.S) = impl in
    let atoms =
      match Schedule.of_string schedule with
      | Ok atoms -> atoms
      | Error msg -> Fmt.failwith "%s" msg
    in
    let r = Pcl_harness.run impl atoms in
    Format.printf "# %s under %a@." M.name Schedule.pp atoms;
    Format.printf "%s@." (Wire.print r.Pcl_harness.sim.Sim.history);
    Format.printf "@.satisfies: %s@."
      (String.concat ", " (Checkers.satisfied r.Pcl_harness.sim.Sim.history));
    if show_log then begin
      let mem = r.Pcl_harness.sim.Sim.mem in
      let name_of = Memory.name_of mem in
      Access_log.iter (Memory.log mem) ~f:(fun e ->
          Format.printf "%a@." (Access_log.pp_entry ~name_of) e)
    end;
    match r.Pcl_harness.sim.Sim.report.Schedule.stop with
    | Schedule.Budget_exhausted { stalled_pid; last } ->
        Format.printf "@.schedule stalled: %s@."
          (Schedule.stop_to_string
             r.Pcl_harness.sim.Sim.report.Schedule.stop);
        Reason.exit_with
          (Reason.Stall
             {
               pid = stalled_pid;
               step = Option.map (fun e -> e.Access_log.index) last;
               obj =
                 Option.map
                   (fun e ->
                     Memory.name_of r.Pcl_harness.sim.Sim.mem
                       e.Access_log.oid)
                   last;
               prim =
                 Option.map
                   (fun e -> Primitive.kind_name e.Access_log.prim)
                   last;
             })
    | Schedule.Completed | Schedule.Crashed _ -> ()
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Run the paper's seven transactions under an explicit adversarial \
          schedule, print the resulting history in the wire format, and \
          report which conditions it satisfies.")
    Term.(const run $ Sweep.tm $ schedule_arg $ show_log)

type fuzz_totals = {
  wf_bad : int;
  of_bad : int;
  dap_bad : int;
  cons_bad : int;
  lint_bad : int;  (** runs with unexpected pclsan findings *)
  stalled : int;
  dumped : string list;  (** trace artifacts written for violating runs *)
}

let fuzz_violations t = t.wf_bad + t.of_bad + t.dap_bad + t.cons_bad + t.lint_bad

(** Fuzz one TM with random transactions and schedules, the detectors and
    checkers as oracles, each chosen by the TM's declared contract:
    obstruction-freedom unless it is blocking, strict DAP if it claims
    it, and its consistency condition.  Shared by [fuzz] and [report].
    With [dump_dir], every violating execution is dumped as a replayable
    trace artifact with its verdict provenance attached.  With [lint],
    the pclsan trace passes additionally run on every execution; findings
    outside the TM's expected set count as violations (and are dumped as
    verdicts too). *)
let run_fuzz ?dump_dir ?(lint = false) ?(on_progress = fun () -> ()) impl
    ~iters ~seed : fuzz_totals =
  let (module M : Tm_intf.S) = impl in
  let st = Random.State.make [| seed |] in
  let items = [ Item.v "x"; Item.v "y"; Item.v "z" ] in
  let wf_bad = ref 0
  and of_bad = ref 0
  and dap_bad = ref 0
  and cons_bad = ref 0
  and lint_bad = ref 0
  and stalled = ref 0
  and dumped = ref [] in
  let target_checker = Checkers.find_exn M.contract.Tm_intf.condition in
  let iteration dump i =
    (* random static transactions over three items *)
    let spec tid pid =
      let pick () = List.nth items (Random.State.int st 3) in
      {
        Static_txn.tid = Tid.v tid;
        pid;
        reads = List.init (1 + Random.State.int st 2) (fun _ -> pick ());
        writes =
          List.init (1 + Random.State.int st 2) (fun i ->
              (pick (), Value.int ((100 * tid) + i)));
      }
    in
    let specs = List.init 3 (fun i -> spec (i + 1) (i + 1)) in
    let schedule =
      let atoms = ref [] in
      for _ = 1 to 8 do
        atoms :=
          Schedule.Steps
            (1 + Random.State.int st 3, 1 + Random.State.int st 5)
          :: !atoms
      done;
      List.rev !atoms
      @ [ Schedule.Until_done 1; Schedule.Until_done 2;
          Schedule.Until_done 3 ]
    in
    let r =
      Sim.replay ~budget:3_000
        (Static_txn.setup specs impl (Hashtbl.create 8))
        schedule
    in
    let steps = Memory.log r.Sim.mem in
    let log = Access_log.whole steps in
    (match r.Sim.report.Schedule.stop with
    | Schedule.Completed -> ()
    | _ -> incr stalled);
    (* every oracle that fires contributes a verdict-provenance line to
       the dumped artifact *)
    let verdicts = ref [] in
    let add v = verdicts := v :: !verdicts in
    (match History.well_formed r.Sim.history with
    | Ok () -> ()
    | Error msg ->
        incr wf_bad;
        add
          {
            Flight.source = "well-formed";
            verdict = "violated";
            axiom = msg;
            witness_txns = [];
            witness_steps = [];
          });
    if M.contract.Tm_intf.liveness <> Tm_intf.Blocking then begin
      match Obstruction_freedom.violations r.Sim.history log with
      | [] -> ()
      | vs ->
          incr of_bad;
          List.iter
            (fun (v : Obstruction_freedom.violation) ->
              add
                {
                  Flight.source = "obstruction-freedom";
                  verdict = "violated";
                  axiom =
                    "a transaction aborted although no other process took \
                     a step inside its execution interval";
                  witness_txns = [ v.Obstruction_freedom.tid ];
                  witness_steps =
                    [
                      fst v.Obstruction_freedom.interval;
                      snd v.Obstruction_freedom.interval;
                    ];
                })
            vs
    end;
    if M.contract.Tm_intf.strict_dap then begin
      match
        Strict_dap.violations ~data_sets:(Static_txn.data_sets specs) log
      with
      | [] -> ()
      | vs ->
          incr dap_bad;
          List.iter
            (fun (v : Strict_dap.violation) ->
              let tids = [ v.Strict_dap.t1; v.Strict_dap.t2 ] in
              add
                {
                  Flight.source = "strict-dap";
                  verdict = "violated";
                  axiom =
                    "transactions with disjoint data sets contended on a \
                     common base object";
                  witness_txns = tids;
                  witness_steps =
                    (* a live log: its positions are the global indices *)
                    List.filter
                      (fun i ->
                        List.mem (Access_log.tid_int_at steps i) tids
                        && List.mem (Access_log.oid_at steps i)
                             v.Strict_dap.objects)
                      (List.init (Access_log.length steps) Fun.id);
                })
            vs
    end;
    (match target_checker.Spec.check ~budget:400_000 r.Sim.history with
    | Spec.Unsat -> (
        incr cons_bad;
        match
          Provenance.of_unsat ~budget:400_000 ~log target_checker
            r.Sim.history
        with
        | Some p -> add (Provenance.to_flight p)
        | None -> ())
    | Spec.Sat | Spec.Out_of_budget -> ());
    if lint then begin
      let res =
        lint_sim ~data_sets:(Static_txn.data_sets specs) ~tm:M.name ~log r
      in
      if res.Lints.unexpected <> [] then begin
        incr lint_bad;
        List.iter
          (fun f -> add (Lint.to_flight_verdict f))
          res.Lints.unexpected
      end
    end;
    match (dump, List.rev !verdicts) with
    | Some dump, (_ :: _ as verdicts) ->
        dumped :=
          dump ~verdicts
            (Printf.sprintf "fuzz-%s-seed%d-iter%d" M.name seed i)
            [
              ("tm", M.name);
              ("workload", "fuzz");
              ("seed", string_of_int seed);
              ("iteration", string_of_int i);
            ]
          :: !dumped
    | _ -> ()
  in
  Sweep.recording dump_dir (fun dump ->
      for i = 1 to iters do
        iteration dump i;
        on_progress ()
      done);
  {
    wf_bad = !wf_bad;
    of_bad = !of_bad;
    dap_bad = !dap_bad;
    cons_bad = !cons_bad;
    lint_bad = !lint_bad;
    stalled = !stalled;
    dumped = List.rev !dumped;
  }

let fuzz_cmd =
  let iters =
    Sweep.count [ "n"; "iterations" ] ~default:200 ~docv:"N"
      "Random executions to try."
  in
  let seed = Sweep.seed "RNG seed." in
  let run tm iters seed dump_dir lint out =
    let violations = ref 0 and runs = ref 0 in
    let kinds = Hashtbl.create 8 in
    let count kind n =
      if n > 0 then
        Hashtbl.replace kinds kind
          (n + Option.value ~default:0 (Hashtbl.find_opt kinds kind))
    in
    Sweep.run out ~label:"fuzz" ~every:50 ~name:Registry.name
      (Sweep.impls_of tm)
      ~row:(fun ~tick impl ->
        let name = Registry.name impl in
        let t = run_fuzz ?dump_dir ~lint ~on_progress:tick impl ~iters ~seed in
        violations := !violations + fuzz_violations t;
        runs := !runs + iters;
        count "ill-formed" t.wf_bad;
        count "obstruction-freedom" t.of_bad;
        count "strict-dap" t.dap_bad;
        count "consistency" t.cons_bad;
        count "lint" t.lint_bad;
        ( [
            Obs_json.to_string
              (Obs_json.Obj
                 [
                   Schema.field;
                   ("type", Obs_json.String "fuzz");
                   ("tm", Obs_json.String name);
                   ("seed", Obs_json.Int seed);
                   ("runs", Obs_json.Int iters);
                   ("ill_formed", Obs_json.Int t.wf_bad);
                   ("of_violations", Obs_json.Int t.of_bad);
                   ("dap_violations", Obs_json.Int t.dap_bad);
                   ("consistency_violations", Obs_json.Int t.cons_bad);
                   ("lint_unexpected", Obs_json.Int t.lint_bad);
                   ("stalled", Obs_json.Int t.stalled);
                 ]);
          ],
          fun ppf ->
            Format.fprintf ppf
              "%-12s %d runs: ill-formed %d, OF violations %d, strict-DAP \
               violations %d, consistency-target violations %d%s, stalled \
               %d@."
              name iters t.wf_bad t.of_bad t.dap_bad t.cons_bad
              (if lint then
                 Printf.sprintf ", unexpected lint findings %d" t.lint_bad
               else "")
              t.stalled;
            List.iter
              (Format.fprintf ppf "  violating trace dumped to %s@.")
              t.dumped ))
      ~footer:(fun () ->
        ( [],
          fun ppf ->
            if !violations > 0 then
              Format.fprintf ppf "%d contract violation(s) found@." !violations
        ))
      ~reason:(fun () ->
        if !violations = 0 then None
        else
          Some
            (Reason.Contract_violation
               {
                 violations = !violations;
                 runs = !runs;
                 kinds =
                   List.sort compare
                     (Hashtbl.fold (fun k v acc -> (k, v) :: acc) kinds []);
               }))
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:
         "Fuzz a TM with random transactions and schedules, using the \
          detectors and checkers as oracles; every TM must uphold its own \
          advertised contract (the candidate's is weak-adaptive, which it \
          may violate — that is the theorem).  Exits non-zero when a \
          violation is found; with $(b,--record) each violating execution \
          is dumped as a replayable trace for `pcl_tm explain'; with \
          $(b,--lint) the pclsan trace passes run on every execution and \
          findings outside the TM's expected set count as violations.")
    Term.(
      const run $ Sweep.tm $ iters $ seed $ Sweep.dump_dir $ lint_flag
      $ Sweep.out)

(* ------------------------------------------------------------------ *)
(* explain: replay a dumped trace artifact — render its timeline with the
   witness steps highlighted and print the verdict provenance. *)

let pp_flight_verdict ppf (v : Flight.verdict) =
  Format.fprintf ppf "%s: %s@\n  witness: {%s}%s@\n  axiom: %s"
    v.Flight.source v.Flight.verdict
    (String.concat ", " (List.map Tid.name v.Flight.witness_txns))
    (match v.Flight.witness_steps with
    | [] -> ""
    | steps ->
        Printf.sprintf " at steps %s"
          (String.concat "," (List.map string_of_int steps)))
    v.Flight.axiom

(* "p1@42,p2@100" — the crashes meta written by Sim — as (pid, step) *)
let pid_steps_of_meta s =
  List.filter_map
    (fun tok ->
      match String.index_opt tok '@' with
      | Some i when String.length tok > 1 && tok.[0] = 'p' ->
          let pid = int_of_string_opt (String.sub tok 1 (i - 1)) in
          let step =
            int_of_string_opt
              (String.sub tok (i + 1) (String.length tok - i - 1))
          in
          (match (pid, step) with
          | Some p, Some s -> Some (p, s)
          | _ -> None)
      | _ -> None)
    (String.split_on_char ',' s)

(* "budget-exhausted:p1@#42" / "...@start" -> (pid, last step index) *)
let stall_of_stop s =
  let pfx = "budget-exhausted:" in
  let n = String.length pfx in
  if String.length s > n && String.sub s 0 n = pfx then
    let rest = String.sub s n (String.length s - n) in
    match String.index_opt rest '@' with
    | Some i when i > 1 && rest.[0] = 'p' -> (
        let tail = String.sub rest (i + 1) (String.length rest - i - 1) in
        let step =
          if String.length tail > 1 && tail.[0] = '#' then
            int_of_string_opt (String.sub tail 1 (String.length tail - 1))
          else None
        in
        match int_of_string_opt (String.sub rest 1 (i - 1)) with
        | Some pid -> Some (pid, step)
        | None -> None)
    | _ -> None
  else None

let explain_cmd =
  let file =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"TRACE"
          ~doc:
            "Flight-recorder artifact (.trace.jsonl) dumped by `pcl_tm \
             fuzz --record' / `pcl_tm explore --record'.")
  in
  let chrome =
    Arg.(
      value
      & opt (some string) None
      & info [ "chrome" ] ~docv:"FILE"
          ~doc:
            "Also export the trace as Chrome trace-event JSON \
             (Perfetto-loadable) to $(docv).")
  in
  let run file checker width chrome =
    match Flight.load file with
    | Error msg -> Fmt.failwith "cannot load %s: %s" file msg
    | Ok fl ->
        Format.printf "trace: %s@." file;
        List.iter
          (fun (k, v) -> Format.printf "  %-10s %s@." k v)
          (Flight.meta fl);
        Format.printf "  %-10s %d recorded, %d retained, %d dropped@.@."
          "ring" (Flight.recorded fl)
          (Flight.steps fl).Access_log.len
          (Flight.dropped fl);
        (* stall attribution: the stop meta names the wedged process and
           the index of its last step; resolve it in the recording if it
           was retained *)
        (match Option.bind (Flight.meta_value fl "stop") stall_of_stop with
        | Some (pid, None) ->
            Format.printf
              "stall: p%d exhausted the budget without taking a step@." pid
        | Some (pid, Some k) -> (
            match Flight.find_step fl k with
            | Some e ->
                Format.printf "stall: p%d wedged after %a@." pid
                  (Access_log.pp_entry ~name_of:(Flight.name_of fl))
                  e
            | None ->
                Format.printf
                  "stall: p%d wedged after step #%d (not retained in the \
                   ring)@."
                  pid k)
        | None -> ());
        let crash_steps =
          match Flight.meta_value fl "crashes" with
          | Some s -> pid_steps_of_meta s
          | None -> []
        in
        List.iter
          (fun (pid, step) ->
            Format.printf "crash: p%d crash-stopped at step #%d@." pid step)
          crash_steps;
        if crash_steps <> [] then Format.printf "@.";
        let history = Flight.history fl in
        let log = Flight.steps fl in
        (* stored verdicts are the trace's own provenance; -c recomputes
           against a chosen checker; with neither, fall back to the first
           checker (strongest to weakest) that rejects the history *)
        let recomputed =
          match checker with
          | Some name -> (
              let c = Checkers.find_exn name in
              match Provenance.of_unsat ~log c history with
              | Some p -> [ Provenance.to_flight p ]
              | None ->
                  Format.printf "%s does not reject this history@.@." name;
                  [])
          | None ->
              if Flight.verdicts fl <> [] then []
              else
                List.find_map
                  (fun c -> Provenance.of_unsat ~log c history)
                  Checkers.all
                |> Option.map Provenance.to_flight
                |> Option.to_list
        in
        let verdicts = Flight.verdicts fl @ recomputed in
        let highlight =
          List.concat_map (fun v -> v.Flight.witness_steps) verdicts
          @ List.map snd crash_steps
          |> List.sort_uniq compare
        in
        Format.printf "%s"
          (Timeline.render ~width ~highlight
             ~names:(Flight.name_of fl)
             history log);
        List.iter
          (fun v -> Format.printf "@.%a@." pp_flight_verdict v)
          verdicts;
        if verdicts = [] then
          Format.printf "@.no verdicts: the recorded history is consistent@.";
        (match chrome with
        | Some out ->
            Sweep.write_file out
              (Obs_json.to_string (Flight.to_chrome fl) ^ "\n");
            Format.printf "@.chrome trace written to %s@." out
        | None -> ());
        (* a trace judged a violation (stored or recomputed verdicts) makes
           the replay fail, so CI can gate on `explain` directly *)
        if verdicts <> [] then
          Reason.exit_with
            (Reason.Violation_trace
               {
                 trace = file;
                 verdicts = List.length verdicts;
                 sources =
                   List.sort_uniq compare
                     (List.map (fun v -> v.Flight.source) verdicts);
               })
  in
  Cmd.v
    (Cmd.info "explain"
       ~doc:
         "Replay a recorded trace artifact: render its step-level timeline \
          with the witness steps highlighted, and print the verdict \
          provenance (which axiom failed, which transactions and steps \
          witness it).  Exits non-zero when the replayed trace is judged a \
          violation.")
    Term.(const run $ file $ checker_arg $ width_arg $ chrome)

(* ------------------------------------------------------------------ *)
(* lint: pclsan — the happens-before engine and lint passes, over dumped
   artifacts and/or live recorded workload runs. *)

let lint_cmd =
  let traces =
    Arg.(
      value & pos_all file []
      & info [] ~docv:"TRACE"
          ~doc:
            "Flight-recorder artifacts (.trace.jsonl) to lint; without \
             any, live recorded workload runs are linted instead (every \
             registered TM, or just $(b,-t) TM).")
  in
  let pass_filter =
    Arg.(
      value & opt_all string []
      & info [ "p"; "pass" ] ~docv:"PASS"
          ~doc:
            "Run only this pass (repeatable; unique prefixes resolve, \
             e.g. $(b,-p tor) for torn-snapshot).  Default: all trace \
             passes, plus figure-consistency when linting live TMs.")
  in
  let horizon =
    Sweep.count [ "horizon" ] ~default:Lint.default.Lint.horizon
      ~docv:"STEPS"
      "of-stall: solo steps a transaction may run contention-free without \
       completing before it is flagged."
  in
  let connectivity =
    Arg.(
      value
      & opt (enum [ ("direct", `Direct); ("path", `Path) ]) `Direct
      & info [ "connectivity" ] ~docv:"KIND"
          ~doc:
            "strict-dap: flag contention between transactions with \
             $(b,direct)ly disjoint data sets (the paper's strict DAP) or \
             only between conflict-graph-disconnected ones ($(b,path)).")
  in
  let max_findings =
    Sweep.count [ "max-findings" ] ~default:Lint.default.Lint.max_findings
      ~docv:"N" "Findings reported per pass."
  in
  let seed =
    Sweep.seed
      "Seed of the live recorded workload runs (ignored when linting TRACE \
       files, which carry their own seed in their meta)."
  in
  let run tm traces pass_filter all_tms horizon connectivity max_findings
      seed out =
    let config =
      { Lint.horizon; dap_connectivity = connectivity; max_findings }
    in
    let chosen ~default =
      match pass_filter with
      | [] -> default
      | names -> List.map Lints.find_exn names
    in
    let findings_total = ref 0 and unexpected_total = ref 0 in
    let unexpected_passes = ref [] in
    (* first unexpected progress-guarantee finding, kept whole so the exit
       can go through PCL-E109 with a step-level witness *)
    let progress_failure = ref None in
    (* a lint target: a trace file, or a live recorded workload run *)
    let input_of = function
      | `Trace file -> (
          match Flight.load file with
          | Error msg -> Fmt.failwith "cannot load %s: %s" file msg
          | Ok fl ->
              ( file,
                Lint.input_of_flight fl,
                chosen
                  ~default:
                    (Lint_passes.trace_passes
                    @ [ Progress_lint.progressiveness ]
                    @ Lint.registered ()) ))
      | `Live impl ->
          let name = Registry.name impl in
          let fl = Flight.create () in
          Flight.with_recorder fl (fun () ->
              ignore
                (Workload.run impl
                   {
                     Workload.default with
                     Workload.conflict_pct = 50;
                     txns_per_proc = 10;
                     seed;
                   }));
          ( "workload:" ^ name,
            { (Lint.input_of_flight fl) with Lint.tm = Some name },
            chosen ~default:(Lints.all ()) )
    in
    let impls =
      if all_tms || tm <> None then Sweep.select ~all_tms tm
      else if traces = [] then Registry.all
      else []
    in
    (* one watch tick per lint target *)
    Sweep.run out ~label:"lint" ~every:1
      (List.map (fun f -> `Trace f) traces @ List.map (fun i -> `Live i) impls)
      ~row:(fun ~tick target ->
        let target, input, passes = input_of target in
        let res = Lints.run_passes ~config passes input in
        tick ();
        findings_total := !findings_total + List.length res.Lints.findings;
        unexpected_total :=
          !unexpected_total + List.length res.Lints.unexpected;
        unexpected_passes :=
          List.map (fun (f : Lint.finding) -> f.Lint.pass) res.Lints.unexpected
          @ !unexpected_passes;
        List.iter
          (fun (f : Lint.finding) ->
            match !progress_failure with
            | Some _ -> ()
            | None
              when f.Lint.pass <> "progressiveness" && f.Lint.pass <> "pwf" ->
                ()
            | None ->
                let txn =
                  match f.Lint.txns with t :: _ -> Some t | [] -> None
                in
                let witness_step =
                  match (f.Lint.step, f.Lint.witness_steps) with
                  | Some s, _ -> Some s
                  | None, s :: _ -> Some s
                  | None, [] -> None
                in
                progress_failure :=
                  Some
                    ( res.Lints.tm,
                      f.Lint.pass,
                      Option.bind txn (History.pid_of_txn input.Lint.history),
                      Option.map Tid.to_int txn,
                      witness_step ))
          res.Lints.unexpected;
        let expected f = Lints.is_expected ~tm:res.Lints.tm f in
        ( Obs_json.to_string
            (Obs_json.Obj
               [
                 Schema.field;
                 ("type", Obs_json.String "lint-run");
                 ("target", Obs_json.String target);
                 ( "tm",
                   match res.Lints.tm with
                   | Some t -> Obs_json.String t
                   | None -> Obs_json.Null );
                 ( "passes",
                   Obs_json.List
                     (List.map
                        (fun p -> Obs_json.String p)
                        res.Lints.passes_run) );
                 ("findings", Obs_json.Int (List.length res.Lints.findings));
                 ( "unexpected",
                   Obs_json.Int (List.length res.Lints.unexpected) );
               ])
          :: List.map
               (fun f ->
                 Obs_json.to_string
                   (match Lint.finding_json f with
                   | Obs_json.Obj fields ->
                       Obs_json.Obj
                         (fields
                         @ [
                             ("target", Obs_json.String target);
                             ("expected", Obs_json.Bool (expected f));
                           ])
                   | j -> j))
               res.Lints.findings,
          fun ppf ->
            Format.fprintf ppf "== %s (tm: %s)@." target
              (Option.value ~default:"unknown" res.Lints.tm);
            if res.Lints.findings = [] then
              Format.fprintf ppf "  clean (%s)@."
                (String.concat ", " res.Lints.passes_run)
            else
              List.iter
                (fun f ->
                  Format.fprintf ppf "  @[<v>(%s) %a@]@."
                    (if expected f then "expected" else "UNEXPECTED")
                    (Lint.pp_finding ~name_of:input.Lint.name_of)
                    f)
                res.Lints.findings ))
      ~footer:(fun () ->
        ( [],
          fun ppf ->
            Format.fprintf ppf "@.%d finding(s), %d unexpected@."
              !findings_total !unexpected_total ))
      ~reason:(fun () ->
        if !unexpected_total = 0 then None
        else
          Some
            (match !progress_failure with
            | Some (tm, pass, pid, txn, witness_step) ->
                (* a progress-guarantee detector tripped: exit PCL-E109
                   naming the witness rather than the generic
                   unexpected-findings code *)
                Reason.Progress_violation
                  {
                    tm;
                    pass;
                    pid;
                    txn;
                    witness_step;
                    unexpected = !unexpected_total;
                  }
            | None ->
                Reason.Unexpected_findings
                  {
                    unexpected = !unexpected_total;
                    total = !findings_total;
                    lints = List.sort_uniq compare !unexpected_passes;
                  }))
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:
         "pclsan: run the happens-before engine and lint passes (race, \
          strict-dap, of-stall, lost-update, write-skew, torn-snapshot, \
          progressiveness, pwf, figure-consistency) over dumped trace \
          artifacts or live recorded runs.  Findings are classified against each \
          TM's expected set (the lint confirming what the theorem says \
          about it); exits non-zero on any unexpected finding.")
    Term.(
      const run $ Sweep.tm $ traces $ pass_filter $ Sweep.all_tms $ horizon
      $ connectivity $ max_findings $ seed $ Sweep.out)

(* ------------------------------------------------------------------ *)
(* chaos: fault injection x contention management, the per-TM robustness
   matrix. *)

let chaos_cmd =
  let faults =
    Arg.(
      value & opt_all string []
      & info [ "fault" ] ~docv:"CLASS"
          ~doc:
            "Fault class to inject: none, crash, park, spurious or poison \
             (repeatable; default all).")
  in
  let cms =
    Arg.(
      value & opt_all string []
      & info [ "cm" ] ~docv:"POLICY"
          ~doc:
            "Contention manager: immediate, backoff, polite or karma \
             (repeatable; default all).")
  in
  let iters =
    Arg.(
      value & opt string "default"
      & info [ "iters" ] ~docv:"N"
          ~doc:
            "Transactions per process, or the preset $(b,small) (the CI \
             smoke size).")
  in
  let seed =
    Sweep.seed
      "Sweep seed: victim selection, fault placement and backoff jitter \
       all derive from it, so the same seed reproduces the matrix byte for \
       byte."
  in
  let run tm all_tms faults cms iters seed out dump_dir =
    let tms = Sweep.select ~all_tms tm in
    let base =
      match iters with
      | "default" -> Chaos_run.default
      | "small" -> Chaos_run.small
      | s -> (
          match int_of_string_opt s with
          | Some n when n > 0 -> { Chaos_run.default with txns_per_proc = n }
          | _ ->
              Fmt.failwith "--iters expects a positive integer or `small'")
    in
    let faults =
      match faults with
      | [] -> Fault.all
      | names -> List.map Fault.of_name_exn names
    in
    let cms =
      match cms with [] -> Cm.all | names -> List.map Cm.find_exn names
    in
    let cfg = { base with Chaos_run.tms; faults; cms; seed } in
    let cells = ref 0 and violations = ref 0 and wac = ref 0 in
    let witnesses = ref [] and artifacts = ref 0 in
    let run_cell tick (impl, klass, policy) =
      tick ();
      Sweep.recording dump_dir (fun dump ->
          let c = Chaos_run.run_cell cfg impl klass policy in
          Option.iter
            (fun dump ->
              ignore
                (dump ~verdicts:[]
                   (Printf.sprintf "chaos-%s-%s-%s" c.Chaos_run.tm
                      c.Chaos_run.fault c.Chaos_run.cm)
                   [
                     ("tm", c.Chaos_run.tm);
                     ("fault", c.Chaos_run.fault);
                     ("cm", c.Chaos_run.cm);
                     ("seed", string_of_int seed);
                   ]);
              incr artifacts)
            dump;
          c)
    in
    (* a TM's cells are finalized together: each degradation is judged
       against the same TM and CM's fault-free cell *)
    Sweep.run out ~label:"chaos" ~every:10 tms
      ~header:(fun ppf ->
        Format.fprintf ppf "%-14s %-9s %-10s %-14s %-8s %-8s %-11s %s@." "TM"
          "fault" "cm" "commits/exp" "gave-up" "skipped" "degradation" "stop")
      ~row:(fun ~tick impl ->
        let row =
          Chaos_run.finalize cfg
            (List.map (run_cell tick)
               (Chaos_run.combos { cfg with Chaos_run.tms = [ impl ] }))
        in
        List.iter
          (fun (c : Chaos_run.cell) ->
            incr cells;
            violations := !violations + c.Chaos_run.closure_violations;
            wac := !wac + c.Chaos_run.wac_witnesses;
            if c.Chaos_run.closure_violations > 0 then
              witnesses :=
                Printf.sprintf "%s/%s/%s" c.Chaos_run.tm c.Chaos_run.fault
                  c.Chaos_run.cm
                :: !witnesses)
          row;
        ( List.map (fun c -> Obs_json.to_string (Chaos_run.cell_json c)) row,
          fun ppf ->
            List.iter
              (fun (c : Chaos_run.cell) ->
                Format.fprintf ppf
                  "%-14s %-9s %-10s %5d/%-8d %-8d %-8d %-11s %s%s@."
                  c.Chaos_run.tm c.Chaos_run.fault c.Chaos_run.cm
                  c.Chaos_run.commits c.Chaos_run.expected c.Chaos_run.gave_up
                  c.Chaos_run.skipped c.Chaos_run.degradation c.Chaos_run.stop
                  (if c.Chaos_run.closure_violations > 0 then
                     Printf.sprintf "  ** %d crash-closure violation(s)"
                       c.Chaos_run.closure_violations
                   else ""))
              row ))
      ~footer:(fun () ->
        ( [],
          fun ppf ->
            Format.fprintf ppf
              "@.%d cell(s), %d crash-closure violation(s), %d \
               wac-adaptivity witness(es)@."
              !cells !violations !wac;
            match dump_dir with
            | Some dir when !artifacts > 0 ->
                Format.fprintf ppf "recorded %d artifact(s) under %s/@."
                  !artifacts dir
            | _ -> () ))
      ~reason:(fun () ->
        (* an unexpected Sat -> Unsat flip under crash truncation is a
           checker bug by definition — fail the sweep so CI catches it *)
        if !violations = 0 then None
        else
          Some
            (Reason.Closure_violation
               {
                 violations = !violations;
                 cells = !cells;
                 witnesses = List.rev !witnesses;
               }))
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:
         "Chaos sweep: every selected TM crossed with fault classes \
          (crash-stop, park/unpark, spurious RMW failure, transaction \
          poison) and contention-manager policies (immediate, backoff, \
          polite, karma).  Prints the per-TM robustness matrix — commit \
          rate, retries, degradation class, crash-closure status — and \
          exits non-zero on any crash-closure violation.  With \
          $(b,--record), each cell dumps a replayable trace artifact that \
          `pcl_tm explain' and `pcl_tm lint' consume.")
    Term.(
      const run $ Sweep.tm $ Sweep.all_tms $ faults $ cms $ iters $ seed
      $ Sweep.out $ Sweep.dump_dir)

(* ------------------------------------------------------------------ *)
(* cost: the synchronization-cost observatory — RMR/RMW metering over
   the figure schedules and the explore sweep, per TM. *)

let cost_cmd =
  let per_txn =
    Arg.(
      value & flag
      & info [ "per-txn" ]
          ~doc:
            "Also print the per-transaction cost breakdown of each figure \
             workload (table mode only).")
  in
  let seed =
    Sweep.seed
      "Accepted for sweep-flag uniformity.  The cost matrix derives from \
       the fixed figure schedules and the exhaustive explore sweep, so it \
       is seed-free: every seed yields the identical matrix."
  in
  let run tm all_tms per_txn _seed out =
    let rows = ref [] in
    Sweep.run out ~label:"cost" ~every:200 ~name:Registry.name
      (Sweep.select ~all_tms tm)
      ~row:(fun ~tick impl ->
        rows := !rows @ Cost_run.rows_for ~on_execution:tick impl;
        ([], ignore))
      ~footer:(fun () ->
        let rows = !rows in
        ( List.map Obs_json.to_string (Cost_run.jsonl_values rows),
          fun ppf ->
            Format.fprintf ppf "%a@." Cost_run.pp_table rows;
            if per_txn then
              List.iter
                (fun (r : Cost_run.row) ->
                  if
                    r.Cost_run.workload <> "explore"
                    && r.Cost_run.status = "ok"
                    && r.Cost_run.cost.Cost.txns <> []
                  then begin
                    Format.fprintf ppf "@.%s / %s:@." r.Cost_run.tm
                      r.Cost_run.workload;
                    List.iter
                      (Format.fprintf ppf "  %a@." Cost.pp_txn)
                      r.Cost_run.cost.Cost.txns
                  end)
                rows;
            Format.fprintf ppf "@.%a@." Cost_run.pp_expectations () ))
      ~reason:(fun () ->
        match Cost_run.check !rows with
        | [] -> None
        | (tm, workload, violated) :: _ as all ->
            Format.eprintf "%d cost expectation violation(s)@."
              (List.length all);
            Some (Reason.Cost_expectation { tm; workload; violated }))
  in
  Cmd.v
    (Cmd.info "cost"
       ~doc:
         "The cost observatory: derive per-TM synchronization-cost metrics \
          — remote memory references (RMRs), RMW/CAS-class steps, \
          reads-after-remote-writes, protected-data footprint versus data \
          set, and wasted work split by abort cause — from the proof's \
          figure schedules (Figures 1-6) and the stock explore sweep.  \
          Deterministic: the JSONL is byte-identical across runs.  Exits \
          non-zero when the observed matrix violates the expected-cost \
          (\"PCL tax\") table or a universal cost law.")
    Term.(const run $ Sweep.tm $ Sweep.all_tms $ per_txn $ seed $ Sweep.out)

(* ------------------------------------------------------------------ *)
(* soak: million-transaction endurance runs with continuous phase
   profiling and GC/allocation metering.  The stdout stream leads with
   one byte-deterministic {"type":"soak"} line per TM (totals only);
   the wall-clock and GC numbers ride in separate schema-stamped
   {"type":"perf"} records so determinism gates on the head still
   hold. *)

let soak_cmd =
  let txns =
    Sweep.count [ "n"; "txns" ] ~default:1_000_000 ~docv:"N"
      "Committed-transaction target per TM."
  in
  let procs =
    Sweep.count ~min:1 [ "procs" ] ~default:Soak.default.Soak.n_procs
      ~docv:"P" "Concurrent processes."
  in
  let conflict =
    Sweep.count ~max:100 [ "conflict" ]
      ~default:Soak.default.Soak.conflict_pct ~docv:"PCT"
      "Probability (0..100) a transaction touches shared items."
  in
  let seed = Sweep.seed ~default:Soak.default.Soak.seed "Base RNG seed." in
  let segment =
    Sweep.count [ "segment" ] ~default:Soak.default.Soak.segment_txns
      ~docv:"TXNS"
      "Transactions per process per segment (each segment is a fresh \
       bounded simulator world, so memory stays flat)."
  in
  let budget =
    Sweep.count [ "budget" ] ~default:Soak.default.Soak.budget
      ~docv:"STEPS"
      "Step budget per segment — the liveness fence; a segment that \
       exhausts it stalls the soak (PCL-E108)."
  in
  let tick =
    Sweep.count [ "tick" ] ~default:Soak.default.Soak.tick_steps
      ~docv:"STEPS"
      "Steps between observer ticks (watch snapshots, GC samples); tick \
       boundaries are deterministic."
  in
  let profile_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "profile" ] ~docv:"FILE"
          ~doc:
            "Write the aggregated phase profile as collapsed stacks \
             (flamegraph.pl / speedscope input) to $(docv).")
  in
  let chrome_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "chrome" ] ~docv:"FILE"
          ~doc:
            "Write the phase spans as a Chrome trace-event file (load \
             via chrome://tracing or Perfetto) to $(docv).")
  in
  let gc_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "gc" ] ~docv:"FILE"
          ~doc:
            "Write per-tick GC/allocation samples as JSONL to $(docv) \
             (the closing perf record is always emitted on the main \
             stream).")
  in
  let run tm all_tms txns procs conflict seed segment budget tick out
      profile_file chrome_file gc_file =
    let cfg =
      {
        Soak.default with
        Soak.txns;
        n_procs = procs;
        conflict_pct = conflict;
        seed;
        segment_txns = segment;
        budget;
        tick_steps = tick;
      }
    in
    let profiling = profile_file <> None || chrome_file <> None in
    let tracer = Sink.tracer Sink.default in
    let prof = Prof.create () in
    let chrome_spans = ref [] in
    let gc_lines = ref [] in
    let first_stall = ref None in
    Sweep.run out ~label:"soak" ~every:10 ~name:Registry.name
      (Sweep.select ~all_tms tm)
      ~stop:(fun () -> !first_stall <> None)
      ~row:(fun ~tick:watch_tick impl ->
        let name = Registry.name impl in
        let gcm = Gcstat.create () in
        if profiling then Span.reset tracer;
        let on_tick (p : Soak.progress) =
          watch_tick ();
          let s =
            Gcstat.sample gcm
              ~tick:(p.Soak.steps / max 1 tick)
              ~steps:p.Soak.steps ~txns:p.Soak.txns_done
          in
          if gc_file <> None then
            gc_lines :=
              Obs_json.Obj
                [
                  Schema.field;
                  ("type", Obs_json.String "perf_sample");
                  ("tm", Obs_json.String name);
                  ("tick", Obs_json.Int s.Gcstat.tick);
                  ("steps", Obs_json.Int s.Gcstat.steps);
                  ("txns", Obs_json.Int s.Gcstat.txns);
                  ("alloc_words", Obs_json.Float s.Gcstat.alloc_words);
                  ( "minor_collections",
                    Obs_json.Int s.Gcstat.minor_collections );
                  ( "major_collections",
                    Obs_json.Int s.Gcstat.major_collections );
                ]
              :: !gc_lines
        in
        (* fold each segment's spans into the profile and reset the
           tracer, so the span buffer never overflows over a million
           transactions *)
        let on_segment (_ : Soak.progress) =
          if profiling then begin
            let spans = Span.spans tracer in
            Prof.add_spans prof spans;
            if chrome_file <> None then
              chrome_spans := List.rev_append spans !chrome_spans;
            Span.reset tracer
          end
        in
        let t0 = Unix.gettimeofday () in
        let o = Soak.run ~on_tick ~on_segment impl cfg in
        let wall_ns = int_of_float ((Unix.gettimeofday () -. t0) *. 1e9) in
        let p = o.Soak.progress in
        (* the perf record: the one place wall-clock and GC numbers are
           allowed *)
        let perf =
          Gcstat.report gcm ~wall_ns ~steps:p.Soak.steps
            ~txns:p.Soak.txns_done
        in
        let rate key =
          Option.value ~default:0.
            (Option.bind (Obs_json.member key perf) Obs_json.to_float)
        in
        Option.iter
          (fun (st : Soak.stall) ->
            first_stall :=
              Some
                (Reason.Soak_stall
                   {
                     tm = name;
                     pid = st.Soak.pid;
                     step = st.Soak.step;
                     obj = st.Soak.obj;
                     prim = st.Soak.prim;
                     txns = p.Soak.txns_done;
                     target = txns;
                   }))
          o.Soak.stall;
        ( [
            (* the byte-deterministic totals line *)
            Obs_json.to_string
              (Obs_json.Obj
                 [
                   Schema.field;
                   ("type", Obs_json.String "soak");
                   ("tm", Obs_json.String name);
                   ("txns", Obs_json.Int p.Soak.txns_done);
                   ("target", Obs_json.Int txns);
                   ("aborts", Obs_json.Int p.Soak.aborts);
                   ("steps", Obs_json.Int p.Soak.steps);
                   ("segments", Obs_json.Int p.Soak.segments);
                   ( "stop",
                     Obs_json.String
                       (if o.Soak.stall = None then "completed" else "stalled")
                   );
                 ]);
            Obs_json.to_string
              (match perf with
              | Obs_json.Obj fields ->
                  Obs_json.Obj (fields @ [ ("tm", Obs_json.String name) ])
              | j -> j);
          ],
          fun ppf ->
            Format.fprintf ppf
              "soak %-12s %d/%d txns (%d aborts) in %d steps, %d segments \
               [%s]@."
              name p.Soak.txns_done txns p.Soak.aborts p.Soak.steps
              p.Soak.segments
              (if o.Soak.stall = None then "completed" else "STALLED");
            Format.fprintf ppf "  perf: %.1f ns/step, %.1f words/step@."
              (rate "ns_per_step") (rate "words_per_step") ))
      ~footer:(fun () ->
        Option.iter
          (fun f ->
            Sweep.write_file f (Prof.to_collapsed ~metric:Prof.Wall_ns prof))
          profile_file;
        Option.iter
          (fun f ->
            Sweep.write_file f
              (Obs_json.to_string
                 (Prof.spans_to_chrome (List.rev !chrome_spans))))
          chrome_file;
        Option.iter
          (fun f ->
            Sweep.write_file f
              (String.concat ""
                 (List.rev_map
                    (fun j -> Obs_json.to_string j ^ "\n")
                    !gc_lines)))
          gc_file;
        ( [],
          fun ppf ->
            if profile_file <> None then
              Format.fprintf ppf "@.%a@." Prof.pp prof ))
      ~reason:(fun () -> !first_stall)
  in
  Cmd.v
    (Cmd.info "soak"
       ~doc:
         "The soak observatory: drive N (default 10^6) committed \
          transactions per TM through the stock workload in fresh \
          bounded segments, with live $(b,--watch) snapshots, \
          continuous phase profiling ($(b,--profile) collapsed stacks, \
          $(b,--chrome) trace events) and GC/allocation metering \
          ($(b,--gc), plus a closing schema-stamped perf record).  The \
          leading JSONL line per TM is byte-deterministic.  A segment \
          that exhausts its step budget stalls the soak: exactly one \
          machine-readable PCL-E108 reason line naming the wedged \
          process, step and object, and a nonzero exit.")
    Term.(
      const run $ Sweep.tm $ Sweep.all_tms $ txns $ procs $ conflict $ seed
      $ segment $ budget $ tick $ Sweep.out $ profile_arg $ chrome_arg
      $ gc_arg)

(* ------------------------------------------------------------------ *)
(* conform: the scenario catalogue — run every scenario's TM x CM cells
   and judge each against its declared expectation.  Crash-contained,
   budget-fenced, resumable. *)

let conform_cmd =
  let files =
    Arg.(
      value & pos_all file []
      & info [] ~docv:"CATALOGUE"
          ~doc:
            "Scenario catalogue files (JSON; see scenarios/*.json and the \
             committed scenario.schema.json).  Without any, every \
             catalogue under $(b,--dir) is loaded.")
  in
  let dir =
    Arg.(
      value & opt string "scenarios"
      & info [ "dir" ] ~docv:"DIR"
          ~doc:
            "Catalogue directory loaded when no CATALOGUE file is given \
             ($(b,*.schema.json) is skipped).")
  in
  let all =
    Arg.(
      value & flag
      & info [ "all" ]
          ~doc:
            "Run the full catalogue (the default when no $(b,--scenario) \
             filter is given; the flag exists so intent is explicit in \
             CI scripts).")
  in
  let scenario_filter =
    Arg.(
      value & opt_all string []
      & info [ "scenario" ] ~docv:"ID"
          ~doc:"Run only this scenario id (repeatable).")
  in
  let seed =
    Sweep.seed
      "Sweep seed: per-cell sub-seeds derive from it and the scenario id, \
       so the same seed reproduces the run byte for byte."
  in
  let cells_flag =
    Arg.(
      value & flag
      & info [ "cells" ]
          ~doc:
            "Also emit one $(b,conform_cell) row per TM x CM cell \
             (freshly-run scenarios only — journal-reused rows carry no \
             cell detail).")
  in
  let journal_arg =
    Arg.(
      value & opt string "conform.journal"
      & info [ "journal" ] ~docv:"FILE"
          ~doc:
            "Resume journal: one conformance row is appended (and \
             flushed) as each scenario finishes.")
  in
  let resume =
    Arg.(
      value & flag
      & info [ "resume" ]
          ~doc:
            "Reuse the journal's rows for scenarios that already passed \
             (or are quarantined) and re-run only the rest; the final \
             output is byte-identical to an uninterrupted run.")
  in
  let check_only =
    Arg.(
      value & flag
      & info [ "check" ]
          ~doc:"Validate the catalogue (schema, ids, names) and exit.")
  in
  let list_only =
    Arg.(value & flag & info [ "list" ] ~doc:"List the scenarios and exit.")
  in
  let inject_crash =
    Arg.(
      value
      & opt (some string) None
      & info [ "inject-crash" ] ~docv:"ID"
          ~doc:
            "Containment test: raise an exception inside $(docv)'s first \
             cell; the sweep must report it as that cell's failure and \
             carry on.")
  in
  let inject_stall =
    Arg.(
      value
      & opt (some string) None
      & info [ "inject-stall" ] ~docv:"ID"
          ~doc:
            "Containment test: shrink $(docv)'s first cell's step budget \
             to a handful of steps, forcing a budget-exhaustion (timeout) \
             failure attributed to that cell.")
  in
  let run tm files dir _all scenario_filter seed out cells_flag
      journal_file resume check_only list_only inject_crash inject_stall =
    let scenarios =
      match
        (match files with
        | [] -> Scenario.load_dir dir
        | fs -> Scenario.load_files fs)
      with
      | Ok ss -> ss
      | Error msg -> Fmt.failwith "%s" msg
    in
    let scenarios =
      match scenario_filter with
      | [] -> scenarios
      | ids ->
          List.iter
            (fun id ->
              if
                not
                  (List.exists (fun s -> s.Scenario.id = id) scenarios)
              then Fmt.failwith "unknown scenario id %S" id)
            ids;
          List.filter
            (fun s -> List.mem s.Scenario.id ids)
            scenarios
    in
    (* -t TM restricts every scenario's cell space to that TM; scenarios
       pinned to other TMs drop out of the sweep *)
    let scenarios =
      match tm with
      | None -> scenarios
      | Some _ ->
          let name =
            match Sweep.impls_of tm with
            | [ impl ] -> Registry.name impl
            | _ -> assert false
          in
          List.filter_map
            (fun s ->
              if s.Scenario.tms = [] || List.mem name s.Scenario.tms then
                Some { s with Scenario.tms = [ name ] }
              else None)
            scenarios
    in
    if scenarios = [] then Fmt.failwith "no scenarios selected";
    if check_only then
      Format.printf "%d scenario(s) valid@." (List.length scenarios)
    else if list_only then
      List.iter
        (fun s ->
          Format.printf "%-32s %-14s %-9s %3d cells%s  %s@." s.Scenario.id
            (Scenario.family_to_string s.Scenario.family)
            (Fault.name s.Scenario.fault)
            (List.length (Scenario_run.cells_of s))
            (if s.Scenario.quarantine then "  [quarantined]" else "")
            s.Scenario.describe)
        scenarios
    else begin
      (* journal-reused rows for --resume: id -> raw line, last
         occurrence wins (a re-run scenario appends a newer row) *)
      let reusable = Hashtbl.create 64 in
      if resume then
        List.iter
          (fun (id, status, line) ->
            if status = "pass" || status = "quarantine" then
              Hashtbl.replace reusable id line
            else Hashtbl.remove reusable id)
          (Scenario_run.journal_load journal_file)
      else Sweep.write_file journal_file "";
      let failed = ref [] and timeouts = ref [] in
      let quarantined = ref 0 and total_cells = ref 0 and reused = ref 0 in
      let table_row ppf (id, status, cells, failed, from_journal) =
        Format.fprintf ppf "%-32s %-11s %5d %6d%s@." id status cells failed
          (if from_journal then "  (journal)" else "")
      in
      Sweep.run out ~label:"conform" ~every:10 scenarios
        ~header:(fun ppf ->
          Format.fprintf ppf "%-32s %-11s %5s %6s@." "scenario" "status"
            "cells" "failed")
        ~row:(fun ~tick s ->
          let id = s.Scenario.id in
          match Hashtbl.find_opt reusable id with
          | Some line ->
              incr reused;
              let status, cells =
                match Obs_json.parse line with
                | Ok j ->
                    ( Option.value ~default:"pass"
                        (Option.bind (Obs_json.member "status" j)
                           Obs_json.to_str),
                      Option.value ~default:0
                        (Option.bind (Obs_json.member "cells" j)
                           Obs_json.to_int) )
                | Error _ -> ("pass", 0)
              in
              if status = "quarantine" then incr quarantined;
              total_cells := !total_cells + cells;
              ([ line ], fun ppf -> table_row ppf (id, status, cells, 0, true))
          | None ->
              let inject =
                if inject_crash = Some id then Scenario_run.Inject_crash
                else if inject_stall = Some id then Scenario_run.Inject_stall
                else Scenario_run.No_inject
              in
              let row = Scenario_run.run_row ~tick ~inject ~seed s in
              (* cell rows ride the same sweep, rendered from the row's
                 failures plus the passing cell list, latest cell first *)
              let cell_lines =
                if not cells_flag then []
                else
                  List.rev_map
                    (fun (impl, policy) ->
                      let tm = Registry.name impl in
                      let cm = policy.Cm.name in
                      let c =
                        match
                          List.find_opt
                            (fun (f : Scenario_run.cell) ->
                              f.Scenario_run.tm = tm && f.Scenario_run.cm = cm)
                            row.Scenario_run.failures
                        with
                        | Some f -> f
                        | None ->
                            {
                              Scenario_run.tm;
                              cm;
                              reason = None;
                              detail = "";
                            }
                      in
                      Obs_json.to_string (Scenario_run.cell_json ~id c))
                    (Scenario_run.cells_of s)
              in
              let line = Obs_json.to_string (Scenario_run.row_json row) in
              Sweep.write_file ~append:true journal_file (line ^ "\n");
              if row.Scenario_run.status = "fail" then begin
                failed := id :: !failed;
                if
                  List.exists
                    (fun (f : Scenario_run.cell) ->
                      f.Scenario_run.reason = Some "timeout")
                    row.Scenario_run.failures
                then timeouts := id :: !timeouts
              end;
              if row.Scenario_run.status = "quarantine" then incr quarantined;
              total_cells := !total_cells + row.Scenario_run.cells;
              ( cell_lines @ [ line ],
                fun ppf ->
                  table_row ppf
                    ( id,
                      row.Scenario_run.status,
                      row.Scenario_run.cells,
                      row.Scenario_run.failed,
                      false ) ))
        ~footer:(fun () ->
          ( [],
            fun ppf ->
              Format.fprintf ppf
                "@.%d scenario(s) (%d from the journal), %d cell(s), %d \
                 failed, %d quarantined@."
                (List.length scenarios) !reused !total_cells
                (List.length !failed) !quarantined ))
        ~reason:(fun () ->
          if !failed = [] then None
          else
            Some
              (Reason.Conform_failure
                 {
                   failed = List.rev !failed;
                   timeouts = List.rev !timeouts;
                   scenarios = List.length scenarios;
                   cells = !total_cells;
                   quarantined = !quarantined;
                 }))
    end
  in
  Cmd.v
    (Cmd.info "conform"
       ~doc:
         "Run the scenario catalogue: every scenario's TM x CM cells, \
          each judged against the scenario's declared expectation \
          (consistency verdict, stop reason, lint findings, commit \
          floor).  Crash-contained — an exception or a stall inside one \
          cell is reported as that cell's failure and never aborts the \
          sweep.  Each finished scenario is journaled, so $(b,--resume) \
          re-runs only unfinished ids with byte-identical final output.  \
          Exits non-zero (one PCL-E110 reason line naming the failed \
          ids) when any non-quarantined scenario fails.")
    Term.(
      const run $ Sweep.tm $ files $ dir $ all $ scenario_filter $ seed
      $ Sweep.out $ cells_flag $ journal_arg $ resume $ check_only
      $ list_only $ inject_crash $ inject_stall)

(* ------------------------------------------------------------------ *)
(* report: run a workload silently, then dump the telemetry sink. *)

let report_workloads =
  [ "mixed"; "fuzz"; "scaling"; "verdict"; "liveness"; "explore"; "checkers" ]

(* every checker decides a sequential read-modify-write chain of [n]
   transactions (8n events) 100 times: the cost-against-length table is
   the checker_wall_ns and checker_history_events histograms *)
let report_checkers n =
  let h =
    Build.history
      (List.concat_map
         (fun k ->
           [ Build.B (k, ((k - 1) mod 3) + 1); Build.R (k, "x", k - 1);
             Build.W (k, "x", k); Build.C k ])
         (List.init n (fun i -> i + 1)))
  in
  List.iter
    (fun (c : Spec.checker) ->
      for _ = 1 to 100 do
        ignore (c.Spec.check h)
      done)
    Checkers.all

(** Drive one silent workload over [impl]; all output happens through the
    default sink. *)
let report_drive workload ~iters ~seed impl =
  match workload with
  | "mixed" ->
      ignore
        (Workload.run impl
           { Workload.default with txns_per_proc = iters; seed });
      ignore (run_fuzz impl ~iters ~seed)
  | "fuzz" -> ignore (run_fuzz impl ~iters ~seed)
  | "scaling" ->
      List.iter
        (fun n_procs ->
          List.iter
            (fun conflict_pct ->
              ignore
                (Workload.run impl
                   {
                     Workload.default with
                     n_procs;
                     conflict_pct;
                     txns_per_proc = iters;
                     seed;
                   }))
            [ 0; 50; 100 ])
        [ 2; 4; 8 ]
  | "verdict" -> ignore (Pcl_verdict.assess impl)
  | "liveness" ->
      ignore (Liveness_class.classify impl);
      List.iter (fun disjoint -> ignore (Progress.run impl ~disjoint))
        [ false; true ]
  | "explore" -> ignore (run_explore impl)
  | w -> Fmt.failwith "unknown workload %S (one of %s)" w
           (String.concat ", " report_workloads)

let report_cmd =
  let workload =
    Arg.(
      value
      & opt (enum (List.map (fun w -> (w, w)) report_workloads)) "mixed"
      & info [ "w"; "workload" ] ~docv:"WORKLOAD"
          ~doc:
            "Workload to instrument: $(b,mixed) (scaling run + fuzz), \
             $(b,fuzz), $(b,scaling) (procs x conflict grid), \
             $(b,verdict), $(b,liveness) (classes and progress \
             profiles), $(b,explore) or $(b,checkers) (every checker on \
             a sequential chain of N transactions, once whatever the TM \
             selection).")
  in
  let iters =
    Sweep.count [ "n"; "iterations" ] ~default:10 ~docv:"N"
      "Iterations (fuzz runs / txns per process)."
  in
  let seed = Sweep.seed "RNG seed." in
  let run tm workload iters seed out =
    let impls = Sweep.impls_of tm in
    let sink = Sink.default in
    Sink.reset sink;
    Sink.set_meta sink "tool" "pcl_tm report";
    Sink.set_meta sink "workload" workload;
    Sink.set_meta sink "iterations" (string_of_int iters);
    Sink.set_meta sink "seed" (string_of_int seed);
    Sink.set_meta sink "tm"
      (match (tm, impls) with
      | Some _, [ (module M : Tm_intf.S) ] -> M.name
      | _ -> "all");
    if workload = "checkers" then report_checkers iters
    else List.iter (report_drive workload ~iters ~seed) impls;
    if out.Sweep.json || out.Sweep.output <> None then
      Sweep.emit out (Sink.to_jsonl sink)
    else Format.printf "%a@." Sink.pp_table sink
  in
  Cmd.v
    (Cmd.info "report"
       ~doc:
         "Run a workload with the telemetry sink enabled and report the \
          aggregated counters, histograms and spans — as a table, as JSONL \
          on stdout ($(b,--json)), or to a file ($(b,-o)).")
    Term.(const run $ Sweep.tm $ workload $ iters $ seed $ Sweep.outputs)

(* The exit funnel: every nonzero exit leaves through here with exactly
   one machine-readable reason line on stderr.  Commands raise
   [Reason.Exit_reason]; [Fmt.failwith] (Failure) and registry lookups
   (Invalid_argument) map to invalid input; anything else is an internal
   error; and a nonzero return from cmdliner itself (usage/parse errors,
   which print their own diagnostics) is stamped [Cli_error] — guarded by
   [Reason.emitted] so a reason raised through a command never doubles. *)
let () =
  (* the chaos library's lint pass rides the pclsan plug-in registry *)
  Crash_closure.register ();
  let info =
    Cmd.info "pcl_tm" ~version:"1.0"
      ~doc:"The PCL-theorem transactional-memory workbench."
  in
  let group =
    Cmd.group info
      [ list_cmd; verdict_cmd; figures_cmd; anomalies_cmd; check_cmd;
        check_file_cmd; liveness_cmd; explore_cmd; trace_cmd; fuzz_cmd;
        explain_cmd; lint_cmd; chaos_cmd; cost_cmd; soak_cmd; conform_cmd;
        report_cmd ]
  in
  let rc =
    try Cmd.eval ~catch:false group with
    | Reason.Exit_reason r ->
        Reason.emit r;
        1
    | Failure msg | Invalid_argument msg ->
        Reason.emit (Reason.Invalid_input { msg });
        1
    | e ->
        Reason.emit (Reason.Internal_error { exn = Printexc.to_string e });
        125
  in
  if rc <> 0 && not (Reason.emitted ()) then
    Reason.emit (Reason.Cli_error { rc });
  exit rc

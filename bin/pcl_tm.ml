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

let tm_arg =
  let doc = "TM implementation (see `pcl_tm list')." in
  Arg.(value & opt (some string) None & info [ "t"; "tm" ] ~docv:"TM" ~doc)

let impls_of = function
  | None -> Registry.all
  | Some n -> (
      match Registry.lookup n with
      | Registry.Found i -> [ i ]
      | Registry.Ambiguous candidates ->
          Fmt.failwith "ambiguous TM %S: matches %s" n
            (String.concat ", " candidates)
      | Registry.Unknown -> Fmt.failwith "unknown TM %S (try `pcl_tm list')" n)

let width_arg =
  Arg.(
    value & opt int 72
    & info [ "width" ] ~docv:"COLS" ~doc:"Timeline band width in columns.")

let watch_arg =
  Arg.(
    value & flag
    & info [ "watch" ]
        ~doc:
          "Live telemetry: render a one-line progress/metrics snapshot on \
           stderr every few hundred progress ticks (executions, \
           iterations, cells), read from the metrics registry.  Never \
           touches stdout, so $(b,--json) output stays clean.")

(* the metric names a watch line samples, by command *)
let watch_counters =
  [
    ("nodes", "explorer_nodes_total");
    ("pruned", "explorer_sleep_pruned_total");
    ("commits", "tm_commit_total");
    ("aborts", "tm_abort_total");
    ("rmrs", "cost_rmr_total");
  ]

let make_watch ~enabled ~label ~every =
  if enabled then Some (Watch.create ~every ~label watch_counters) else None

let watch_tick = Option.iter Watch.tick
let watch_finish = Option.iter Watch.finish

(* ------------------------------------------------------------------ *)

let list_cmd =
  let run () =
    Format.printf "TM implementations:@.";
    List.iter
      (fun (module M : Tm_intf.S) ->
        Format.printf "  %-12s %s@." M.name M.describe)
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
      (impls_of tm)
  in
  Cmd.v
    (Cmd.info "verdict"
       ~doc:"Run the PCL harness and report the P/C/L triangle verdict.")
    Term.(const run $ tm_arg)

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
      (impls_of tm)
  in
  Cmd.v
    (Cmd.info "figures"
       ~doc:
         "Re-enact the proof construction (Figures 1-6, Claims 1-5) against \
          a TM; $(b,--render) draws them as step-level timelines.")
    Term.(const run $ tm_arg $ render $ width_arg)

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
      (impls_of tm)
  in
  Cmd.v
    (Cmd.info "liveness"
       ~doc:
         "Classify each TM's liveness empirically (wait-free / lock-free / \
          obstruction-free / blocking) with probe witnesses, including the \
          adaptive commit-avoiding adversary that exhibits DSTM's \
          mutual-abort livelock.")
    Term.(const run $ tm_arg)

(* --record / --dump-dir: dump failing executions as replayable
   flight-recorder artifacts *)

let record_arg =
  Arg.(
    value & flag
    & info [ "record" ]
        ~doc:
          "Record executions with the flight recorder and dump every \
           violating one as a replayable .trace.jsonl artifact (see \
           $(b,--dump-dir) and `pcl_tm explain').")

let dump_dir_arg =
  Arg.(
    value & opt string "traces"
    & info [ "dump-dir" ] ~docv:"DIR"
        ~doc:"Directory for dumped trace artifacts (created if missing).")

let ensure_dir dir = if not (Sys.file_exists dir) then Sys.mkdir dir 0o755

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

(** Sweep the standard writer/reader pair ({!Explore_sweep}) on one TM.
    With [dump_dir], the first execution satisfying nothing at all is
    dumped as a trace artifact; with [lint], the pclsan trace passes run
    on every execution and the number of executions with unexpected
    findings is returned. *)
let run_explore ?dump_dir ?(lint = false) ?(por = true)
    ?(on_progress = fun () -> ()) impl :
    (string * int) list * Explorer.stats * string list * int =
  let dumped = ref [] in
  let dump_violation (r : Sim.result) =
    match (dump_dir, Flight.default ()) with
    | Some dir, Some fl when !dumped = [] ->
        (* even the weakest condition rejects this execution; its unsat
           core is the provenance to attach *)
        let weakest = List.nth Checkers.all (List.length Checkers.all - 1) in
        (match
           Provenance.of_unsat
             ~log:(Access_log.entries (Memory.log r.Sim.mem))
             weakest r.Sim.history
         with
        | Some p -> Flight.add_verdict fl (Provenance.to_flight p)
        | None -> ());
        Flight.set_meta fl "tm" (Registry.name impl);
        Flight.set_meta fl "workload" "explore";
        let path =
          Filename.concat dir
            (Printf.sprintf "explore-%s.trace.jsonl" (Registry.name impl))
        in
        Flight.write_jsonl fl path;
        dumped := [ path ]
    | _ -> ()
  in
  let lint_unexpected = ref 0 in
  let on_execution ~strongest (r : Sim.result) =
    on_progress ();
    if strongest = "none" then dump_violation r;
    if lint then begin
      let input =
        {
          Lint.log = Access_log.entries (Memory.log r.Sim.mem);
          history = r.Sim.history;
          name_of = Memory.name_of r.Sim.mem;
          data_sets = Some Explore_sweep.data_sets;
          tm = Some (Registry.name impl);
          meta = [];
        }
      in
      let res = Lints.run_passes Lint_passes.trace_passes input in
      if res.Lints.unexpected <> [] then incr lint_unexpected
    end
  in
  let sweep () = Explore_sweep.run ~por ~on_execution impl in
  let profiles, stats =
    match dump_dir with
    | Some dir ->
        ensure_dir dir;
        Flight.with_recorder (Flight.create ()) sweep
    | None -> sweep ()
  in
  (profiles, stats, !dumped, !lint_unexpected)

let explore_cmd =
  let seed =
    Arg.(
      value & opt int 1
      & info [ "seed" ] ~docv:"SEED"
          ~doc:
            "Sweep seed, stamped into the JSONL rows.  The sweep itself \
             is exhaustive and deterministic — every seed yields the \
             same verdict profile; the flag exists so every sweep \
             subcommand shares the $(b,--seed)/$(b,--json)/$(b,-o)/\
             $(b,--watch) vocabulary.")
  in
  let json =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:"Emit one JSONL row per TM on stdout instead of the table.")
  in
  let output =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE"
          ~doc:"Also write the JSONL rows to $(docv).")
  in
  let run tm record dump_dir lint por seed json output watch =
    let violations = ref 0 and executions = ref 0 in
    let impls = impls_of tm in
    let json_lines = ref [] in
    List.iter
      (fun impl ->
        let (module M : Tm_intf.S) = impl in
        let w =
          make_watch ~enabled:watch ~label:("explore:" ^ M.name) ~every:200
        in
        let profiles, stats, dumped, lint_unexpected =
          run_explore
            ?dump_dir:(if record then Some dump_dir else None)
            ~lint ~por
            ~on_progress:(fun () -> watch_tick w)
            impl
        in
        watch_finish w;
        executions := !executions + stats.Explorer.executions;
        json_lines :=
          Explore_sweep.row_json ~tm:M.name ~seed (profiles, stats)
          :: !json_lines;
        if not json then begin
          Format.printf
            "%s: %d complete interleavings (%d nodes%s%s), strongest \
             condition satisfied:@."
            M.name stats.Explorer.executions stats.Explorer.nodes
            (if por then
               Printf.sprintf ", %d sleep-set prunes, %d replays"
                 stats.Explorer.sleep_pruned stats.Explorer.replays
             else "")
            (if stats.Explorer.truncated then ", truncated" else "")
        end;
        List.iter
          (fun (name, n) ->
            if name = "none" then violations := !violations + n;
            if not json then Format.printf "  %-26s %d executions@." name n)
          profiles;
        if lint then begin
          violations := !violations + lint_unexpected;
          if not json then
            Format.printf "  %-26s %d executions@." "unexpected-lint"
              lint_unexpected
        end;
        if not json then
          List.iter
            (fun path ->
              Format.printf "  violating trace dumped to %s@." path)
            dumped)
      impls;
    let jsonl =
      String.concat ""
        (List.rev_map (fun j -> Obs_json.to_string j ^ "\n") !json_lines)
    in
    (match output with
    | Some f ->
        let oc = open_out f in
        output_string oc jsonl;
        close_out oc
    | None -> ());
    if json then print_string jsonl;
    if !violations > 0 then begin
      if not json then
        Format.printf
          "%d execution(s) satisfy no consistency condition at all@."
          !violations;
      Reason.exit_with
        (Reason.No_consistency
           {
             failing = !violations;
             executions = !executions;
             tms = List.map Registry.name impls;
           })
    end
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
      const run $ tm_arg $ record_arg $ dump_dir_arg $ lint_flag $ por_flag
      $ seed $ json $ output $ watch_arg)

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
    Term.(const run $ tm_arg $ schedule_arg $ show_log)

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
    checkers as oracles.  Shared by [fuzz] and [report].  With [dump_dir],
    every violating execution is dumped as a replayable trace artifact
    with its verdict provenance attached.  With [lint], the pclsan trace
    passes additionally run on every execution; findings outside the TM's
    expected set count as violations (and are dumped as verdicts too). *)
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
  let target_checker =
    (* weakest claim each TM makes about committed transactions *)
    match M.name with
    | "pram-local" -> Checkers.find_exn "pram"
    | "si-clock" -> Checkers.find_exn "snapshot-isolation"
    | "candidate" | "llsc-candidate" -> Checkers.find_exn "weak-adaptive"
    | _ -> Checkers.find_exn "strict-serializability"
  in
  let iteration i =
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
    let outcomes = Hashtbl.create 8 in
    let setup mem recorder =
      let handle =
        Txn_api.instantiate impl mem recorder
          ~items:(Static_txn.items_of specs)
      in
      List.map
        (fun s ->
          (s.Static_txn.pid, Static_txn.program handle s ~outcomes))
        specs
    in
    let r = Sim.replay ~budget:3_000 setup schedule in
    (* the entry list the detectors below read, built once if one runs *)
    let log = lazy (Access_log.entries (Memory.log r.Sim.mem)) in
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
    if
      (* the blocking TMs stall instead of aborting; lp-progressive
         aborts on conflicts with *suspended* lock holders, which is
         progressive but not obstruction-free *)
      M.name <> "tl-lock" && M.name <> "tl2-clock" && M.name <> "norec"
      && M.name <> "lp-progressive"
    then begin
      match Obstruction_freedom.violations r.Sim.history (Lazy.force log) with
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
    if
      List.mem M.name [ "tl-lock"; "pram-local"; "candidate"; "lp-progressive" ]
    then begin
      match
        Strict_dap.violations
          ~data_sets:(Static_txn.data_sets specs)
          (Lazy.force log)
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
                    List.filter_map
                      (fun (e : Access_log.entry) ->
                        match e.Access_log.tid with
                        | Some t
                          when List.exists (Tid.equal t) tids
                               && List.exists
                                    (Oid.equal e.Access_log.oid)
                                    v.Strict_dap.objects ->
                            Some e.Access_log.index
                        | _ -> None)
                      (Lazy.force log);
                })
            vs
    end;
    (match target_checker.Spec.check ~budget:400_000 r.Sim.history with
    | Spec.Unsat -> (
        incr cons_bad;
        match
          Provenance.of_unsat ~budget:400_000 ~log:(Lazy.force log)
            target_checker r.Sim.history
        with
        | Some p -> add (Provenance.to_flight p)
        | None -> ())
    | Spec.Sat | Spec.Out_of_budget -> ());
    if lint then begin
      let input =
        {
          Lint.log = Lazy.force log;
          history = r.Sim.history;
          name_of = Memory.name_of r.Sim.mem;
          data_sets = Some (Static_txn.data_sets specs);
          tm = Some M.name;
          meta = [];
        }
      in
      let res = Lints.run_passes Lint_passes.trace_passes input in
      if res.Lints.unexpected <> [] then begin
        incr lint_bad;
        List.iter
          (fun f -> add (Lint.to_flight_verdict f))
          res.Lints.unexpected
      end
    end;
    match (dump_dir, Flight.default (), List.rev !verdicts) with
    | Some dir, Some fl, (_ :: _ as vs) ->
        List.iter (Flight.add_verdict fl) vs;
        Flight.set_meta fl "tm" M.name;
        Flight.set_meta fl "workload" "fuzz";
        Flight.set_meta fl "seed" (string_of_int seed);
        Flight.set_meta fl "iteration" (string_of_int i);
        let path =
          Filename.concat dir
            (Printf.sprintf "fuzz-%s-seed%d-iter%d.trace.jsonl" M.name seed
               i)
        in
        Flight.write_jsonl fl path;
        dumped := path :: !dumped
    | _ -> ()
  in
  let loop () =
    for i = 1 to iters do
      iteration i;
      on_progress ()
    done
  in
  (match dump_dir with
  | Some dir ->
      ensure_dir dir;
      Flight.with_recorder (Flight.create ()) loop
  | None -> loop ());
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
    Arg.(
      value & opt int 200
      & info [ "n"; "iterations" ] ~docv:"N" ~doc:"Random executions to try.")
  in
  let seed =
    Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc:"RNG seed.")
  in
  let json =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:"Emit one JSONL row per TM on stdout instead of the table.")
  in
  let output =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE"
          ~doc:"Also write the JSONL rows to $(docv).")
  in
  let run tm iters seed record dump_dir lint json output watch =
    let violations = ref 0 and runs = ref 0 in
    let kinds = Hashtbl.create 8 in
    let count kind n =
      if n > 0 then
        Hashtbl.replace kinds kind
          (n + Option.value ~default:0 (Hashtbl.find_opt kinds kind))
    in
    let json_lines = ref [] in
    List.iter
      (fun impl ->
        let (module M : Tm_intf.S) = impl in
        let w =
          make_watch ~enabled:watch ~label:("fuzz:" ^ M.name) ~every:50
        in
        let t =
          run_fuzz
            ?dump_dir:(if record then Some dump_dir else None)
            ~lint
            ~on_progress:(fun () -> watch_tick w)
            impl ~iters ~seed
        in
        watch_finish w;
        violations := !violations + fuzz_violations t;
        runs := !runs + iters;
        count "ill-formed" t.wf_bad;
        count "obstruction-freedom" t.of_bad;
        count "strict-dap" t.dap_bad;
        count "consistency" t.cons_bad;
        count "lint" t.lint_bad;
        json_lines :=
          Obs_json.Obj
            [
              Schema.field;
              ("type", Obs_json.String "fuzz");
              ("tm", Obs_json.String M.name);
              ("seed", Obs_json.Int seed);
              ("runs", Obs_json.Int iters);
              ("ill_formed", Obs_json.Int t.wf_bad);
              ("of_violations", Obs_json.Int t.of_bad);
              ("dap_violations", Obs_json.Int t.dap_bad);
              ("consistency_violations", Obs_json.Int t.cons_bad);
              ("lint_unexpected", Obs_json.Int t.lint_bad);
              ("stalled", Obs_json.Int t.stalled);
            ]
          :: !json_lines;
        if not json then begin
          Format.printf
            "%-12s %d runs: ill-formed %d, OF violations %d, strict-DAP \
             violations %d, consistency-target violations %d%s, stalled \
             %d@."
            M.name iters t.wf_bad t.of_bad t.dap_bad t.cons_bad
            (if lint then
               Printf.sprintf ", unexpected lint findings %d" t.lint_bad
             else "")
            t.stalled;
          List.iter
            (fun path ->
              Format.printf "  violating trace dumped to %s@." path)
            t.dumped
        end)
      (impls_of tm);
    let jsonl =
      String.concat ""
        (List.rev_map (fun j -> Obs_json.to_string j ^ "\n") !json_lines)
    in
    (match output with
    | Some f ->
        let oc = open_out f in
        output_string oc jsonl;
        close_out oc
    | None -> ());
    if json then print_string jsonl;
    if !violations > 0 then begin
      if not json then
        Format.printf "%d contract violation(s) found@." !violations;
      Reason.exit_with
        (Reason.Contract_violation
           {
             violations = !violations;
             runs = !runs;
             kinds =
               List.sort compare
                 (Hashtbl.fold (fun k v acc -> (k, v) :: acc) kinds []);
           })
    end
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
    Term.(const run $ tm_arg $ iters $ seed $ record_arg $ dump_dir_arg
          $ lint_flag $ json $ output $ watch_arg)

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
          (List.length (Flight.steps fl))
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
        print_string
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
            Flight.write_chrome fl out;
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
  let all_tms =
    Arg.(
      value & flag
      & info [ "all-tms" ]
          ~doc:
            "Lint live runs of every TM in the registry (the default when \
             no TRACE and no $(b,-t) is given).")
  in
  let horizon =
    Arg.(
      value & opt int Lint.default.Lint.horizon
      & info [ "horizon" ] ~docv:"STEPS"
          ~doc:
            "of-stall: solo steps a transaction may run contention-free \
             without completing before it is flagged.")
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
    Arg.(
      value & opt int Lint.default.Lint.max_findings
      & info [ "max-findings" ] ~docv:"N" ~doc:"Findings reported per pass.")
  in
  let json =
    Arg.(
      value & flag
      & info [ "json" ] ~doc:"Emit findings as JSONL on stdout.")
  in
  let output =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE"
          ~doc:"Also write the JSONL export to $(docv).")
  in
  let seed =
    Arg.(
      value & opt int 1
      & info [ "seed" ] ~docv:"SEED"
          ~doc:
            "Seed of the live recorded workload runs (ignored when \
             linting TRACE files, which carry their own seed in their \
             meta).")
  in
  let run tm traces pass_filter all_tms horizon connectivity max_findings
      seed json output watch =
    let config =
      { Lint.horizon; dap_connectivity = connectivity; max_findings }
    in
    (* one watch tick per lint target (trace file or live TM run) *)
    let w = make_watch ~enabled:watch ~label:"lint" ~every:1 in
    let chosen ~default =
      match pass_filter with
      | [] -> default
      | names -> List.map Lints.find_exn names
    in
    let json_lines = ref [] in
    let findings_total = ref 0 and unexpected_total = ref 0 in
    let unexpected_passes = ref [] in
    (* first unexpected progress-guarantee finding, kept whole so the exit
       can go through PCL-E109 with a step-level witness *)
    let progress_failure = ref None in
    let lint_one ~target (input : Lint.input) passes =
      let res = Lints.run_passes ~config passes input in
      watch_tick w;
      findings_total := !findings_total + List.length res.Lints.findings;
      unexpected_total := !unexpected_total + List.length res.Lints.unexpected;
      unexpected_passes :=
        List.map (fun (f : Lint.finding) -> f.Lint.pass) res.Lints.unexpected
        @ !unexpected_passes;
      List.iter
        (fun (f : Lint.finding) ->
          match !progress_failure with
          | Some _ -> ()
          | None when f.Lint.pass <> "progressiveness" && f.Lint.pass <> "pwf"
            ->
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
      if not json then begin
        Format.printf "== %s (tm: %s)@." target
          (Option.value ~default:"unknown" res.Lints.tm);
        if res.Lints.findings = [] then
          Format.printf "  clean (%s)@."
            (String.concat ", " res.Lints.passes_run)
        else
          List.iter
            (fun f ->
              let tag =
                if Lints.is_expected ~tm:res.Lints.tm f then "expected"
                else "UNEXPECTED"
              in
              Format.printf "  @[<v>(%s) %a@]@." tag
                (Lint.pp_finding ~name_of:input.Lint.name_of)
                f)
            res.Lints.findings
      end;
      json_lines :=
        Obs_json.Obj
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
                (List.map (fun p -> Obs_json.String p) res.Lints.passes_run)
            );
            ("findings", Obs_json.Int (List.length res.Lints.findings));
            ("unexpected", Obs_json.Int (List.length res.Lints.unexpected));
          ]
        :: List.map
             (fun f ->
               match Lint.finding_json f with
               | Obs_json.Obj fields ->
                   Obs_json.Obj
                     (fields
                     @ [
                         ("target", Obs_json.String target);
                         ( "expected",
                           Obs_json.Bool
                             (Lints.is_expected ~tm:res.Lints.tm f) );
                       ])
               | j -> j)
             res.Lints.findings
        |> List.append !json_lines
    in
    List.iter
      (fun file ->
        match Flight.load file with
        | Error msg -> Fmt.failwith "cannot load %s: %s" file msg
        | Ok fl ->
            lint_one ~target:file
              (Lint.input_of_flight fl)
              (chosen
                 ~default:
                   (Lint_passes.trace_passes
                   @ [ Progress_lint.progressiveness ]
                   @ Lint.registered ())))
      traces;
    let impls =
      if all_tms then Registry.all
      else
        match tm with
        | Some _ -> impls_of tm
        | None -> if traces = [] then Registry.all else []
    in
    List.iter
      (fun impl ->
        let (module M : Tm_intf.S) = impl in
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
        lint_one
          ~target:(Printf.sprintf "workload:%s" M.name)
          { (Lint.input_of_flight fl) with Lint.tm = Some M.name }
          (chosen ~default:(Lints.all ())))
      impls;
    watch_finish w;
    let jsonl =
      String.concat ""
        (List.map (fun j -> Obs_json.to_string j ^ "\n") !json_lines)
    in
    (match output with
    | Some f ->
        let oc = open_out f in
        output_string oc jsonl;
        close_out oc
    | None -> ());
    if json then print_string jsonl
    else
      Format.printf "@.%d finding(s), %d unexpected@." !findings_total
        !unexpected_total;
    if !unexpected_total > 0 then
      Reason.exit_with
        (match !progress_failure with
        | Some (tm, pass, pid, txn, witness_step) ->
            (* a progress-guarantee detector tripped: exit PCL-E109 naming
               the witness rather than the generic unexpected-findings code *)
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
              })
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
      const run $ tm_arg $ traces $ pass_filter $ all_tms $ horizon
      $ connectivity $ max_findings $ seed $ json $ output $ watch_arg)

(* ------------------------------------------------------------------ *)
(* chaos: fault injection x contention management, the per-TM robustness
   matrix. *)

let chaos_cmd =
  let all_tms =
    Arg.(
      value & flag
      & info [ "all-tms" ]
          ~doc:
            "Sweep every TM in the registry (the default when no $(b,-t) \
             is given).")
  in
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
    Arg.(
      value & opt int 1
      & info [ "seed" ] ~docv:"N"
          ~doc:
            "Sweep seed: victim selection, fault placement and backoff \
             jitter all derive from it, so the same seed reproduces the \
             matrix byte for byte.")
  in
  let json =
    Arg.(
      value & flag
      & info [ "json" ] ~doc:"Emit the matrix as JSONL on stdout.")
  in
  let output =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE"
          ~doc:"Also write the JSONL matrix to $(docv).")
  in
  let run tm all_tms faults cms iters seed json output record dump_dir watch
      =
    let tms = if all_tms then Registry.all else impls_of tm in
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
    if record then ensure_dir dump_dir;
    let artifacts = ref [] in
    let w = make_watch ~enabled:watch ~label:"chaos" ~every:10 in
    let cells =
      Chaos_run.finalize cfg
        (List.map
           (fun (impl, klass, policy) ->
             watch_tick w;
             if not record then Chaos_run.run_cell cfg impl klass policy
             else begin
               let fl = Flight.create () in
               let c =
                 Flight.with_recorder fl (fun () ->
                     Chaos_run.run_cell cfg impl klass policy)
               in
               Flight.set_meta fl "tm" c.Chaos_run.tm;
               Flight.set_meta fl "fault" c.Chaos_run.fault;
               Flight.set_meta fl "cm" c.Chaos_run.cm;
               Flight.set_meta fl "seed" (string_of_int seed);
               let file =
                 Filename.concat dump_dir
                   (Printf.sprintf "chaos-%s-%s-%s.trace.jsonl"
                      c.Chaos_run.tm c.Chaos_run.fault c.Chaos_run.cm)
               in
               Flight.write_jsonl fl file;
               artifacts := file :: !artifacts;
               c
             end)
           (Chaos_run.combos cfg))
    in
    watch_finish w;
    let violations =
      List.fold_left
        (fun acc c -> acc + c.Chaos_run.closure_violations)
        0 cells
    in
    let jsonl =
      String.concat ""
        (List.map
           (fun c -> Obs_json.to_string (Chaos_run.cell_json c) ^ "\n")
           cells)
    in
    (match output with
    | Some f ->
        let oc = open_out f in
        output_string oc jsonl;
        close_out oc
    | None -> ());
    if json then print_string jsonl
    else begin
      Format.printf "%-14s %-9s %-10s %-14s %-8s %-8s %-11s %s@." "TM"
        "fault" "cm" "commits/exp" "gave-up" "skipped" "degradation" "stop";
      List.iter
        (fun (c : Chaos_run.cell) ->
          Format.printf "%-14s %-9s %-10s %5d/%-8d %-8d %-8d %-11s %s%s@."
            c.Chaos_run.tm c.Chaos_run.fault c.Chaos_run.cm
            c.Chaos_run.commits c.Chaos_run.expected c.Chaos_run.gave_up
            c.Chaos_run.skipped c.Chaos_run.degradation c.Chaos_run.stop
            (if c.Chaos_run.closure_violations > 0 then
               Printf.sprintf "  ** %d crash-closure violation(s)"
                 c.Chaos_run.closure_violations
             else ""))
        cells;
      let wac =
        List.fold_left
          (fun acc c -> acc + c.Chaos_run.wac_witnesses)
          0 cells
      in
      Format.printf
        "@.%d cell(s), %d crash-closure violation(s), %d wac-adaptivity \
         witness(es)@."
        (List.length cells) violations wac;
      if !artifacts <> [] then
        Format.printf "recorded %d artifact(s) under %s/@."
          (List.length !artifacts) dump_dir
    end;
    (* an unexpected Sat -> Unsat flip under crash truncation is a checker
       bug by definition — fail the sweep so CI catches it *)
    if violations > 0 then
      Reason.exit_with
        (Reason.Closure_violation
           {
             violations;
             cells = List.length cells;
             witnesses =
               List.filter_map
                 (fun (c : Chaos_run.cell) ->
                   if c.Chaos_run.closure_violations > 0 then
                     Some
                       (Printf.sprintf "%s/%s/%s" c.Chaos_run.tm
                          c.Chaos_run.fault c.Chaos_run.cm)
                   else None)
                 cells;
           })
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
      const run $ tm_arg $ all_tms $ faults $ cms $ iters $ seed $ json
      $ output $ record_arg $ dump_dir_arg $ watch_arg)

(* ------------------------------------------------------------------ *)
(* cost: the synchronization-cost observatory — RMR/RMW metering over
   the figure schedules and the explore sweep, per TM. *)

let cost_cmd =
  let all_tms =
    Arg.(
      value & flag
      & info [ "all-tms" ]
          ~doc:
            "Meter every TM in the registry (the default when no $(b,-t) \
             is given).")
  in
  let json =
    Arg.(
      value & flag
      & info [ "json" ] ~doc:"Emit the cost matrix as JSONL on stdout.")
  in
  let output =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE"
          ~doc:"Also write the JSONL matrix to $(docv).")
  in
  let per_txn =
    Arg.(
      value & flag
      & info [ "per-txn" ]
          ~doc:
            "Also print the per-transaction cost breakdown of each figure \
             workload (table mode only).")
  in
  let seed =
    Arg.(
      value & opt int 1
      & info [ "seed" ] ~docv:"SEED"
          ~doc:
            "Accepted for sweep-flag uniformity ($(b,--seed)/$(b,--json)/\
             $(b,-o)/$(b,--watch) across every sweep subcommand).  The \
             cost matrix derives from the fixed figure schedules and the \
             exhaustive explore sweep, so it is seed-free: every seed \
             yields the identical matrix.")
  in
  let run tm all_tms json output per_txn _seed watch =
    let impls = if all_tms then Registry.all else impls_of tm in
    let rows =
      List.concat_map
        (fun impl ->
          let w =
            make_watch ~enabled:watch
              ~label:("cost:" ^ Registry.name impl)
              ~every:200
          in
          let rows =
            Cost_run.rows_for ~on_execution:(fun () -> watch_tick w) impl
          in
          watch_finish w;
          rows)
        impls
    in
    let jsonl = Cost_run.to_jsonl rows in
    (match output with
    | Some f ->
        let oc = open_out f in
        output_string oc jsonl;
        close_out oc
    | None -> ());
    if json then print_string jsonl
    else begin
      Format.printf "%a@." Cost_run.pp_table rows;
      if per_txn then
        List.iter
          (fun impl ->
            List.iter
              (fun (r : Cost_run.row) ->
                if r.Cost_run.status = "ok" && r.Cost_run.cost.Cost.txns <> []
                then begin
                  Format.printf "@.%s / %s:@." r.Cost_run.tm
                    r.Cost_run.workload;
                  List.iter
                    (fun txn -> Format.printf "  %a@." Cost.pp_txn txn)
                    r.Cost_run.cost.Cost.txns
                end)
              (Cost_run.figure_rows impl))
          impls;
      Format.printf "@.%a@." Cost_run.pp_expectations ()
    end;
    match Cost_run.check rows with
    | [] -> ()
    | (tm, workload, violated) :: _ as all ->
        Format.eprintf "%d cost expectation violation(s)@."
          (List.length all);
        Reason.exit_with (Reason.Cost_expectation { tm; workload; violated })
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
    Term.(
      const run $ tm_arg $ all_tms $ json $ output $ per_txn $ seed
      $ watch_arg)

(* ------------------------------------------------------------------ *)
(* soak: million-transaction endurance runs with continuous phase
   profiling and GC/allocation metering.  The stdout stream leads with
   one byte-deterministic {"type":"soak"} line per TM (totals only);
   the wall-clock and GC numbers ride in separate schema-stamped
   {"type":"perf"} records so determinism gates on the head still
   hold. *)

let soak_cmd =
  let txns =
    Arg.(
      value & opt int 1_000_000
      & info [ "n"; "txns" ] ~docv:"N"
          ~doc:"Committed-transaction target per TM.")
  in
  let all_tms =
    Arg.(
      value & flag
      & info [ "all-tms" ]
          ~doc:
            "Soak every TM in the registry (the default when no $(b,-t) \
             is given).")
  in
  let procs =
    Arg.(
      value & opt int Soak.default.Soak.n_procs
      & info [ "procs" ] ~docv:"P" ~doc:"Concurrent processes.")
  in
  let conflict =
    Arg.(
      value & opt int Soak.default.Soak.conflict_pct
      & info [ "conflict" ] ~docv:"PCT"
          ~doc:"Probability (0..100) a transaction touches shared items.")
  in
  let seed =
    Arg.(
      value & opt int Soak.default.Soak.seed
      & info [ "seed" ] ~docv:"SEED" ~doc:"Base RNG seed.")
  in
  let segment =
    Arg.(
      value & opt int Soak.default.Soak.segment_txns
      & info [ "segment" ] ~docv:"TXNS"
          ~doc:
            "Transactions per process per segment (each segment is a \
             fresh bounded simulator world, so memory stays flat).")
  in
  let budget =
    Arg.(
      value & opt int Soak.default.Soak.budget
      & info [ "budget" ] ~docv:"STEPS"
          ~doc:
            "Step budget per segment — the liveness fence; a segment \
             that exhausts it stalls the soak (PCL-E108).")
  in
  let tick =
    Arg.(
      value & opt int Soak.default.Soak.tick_steps
      & info [ "tick" ] ~docv:"STEPS"
          ~doc:
            "Steps between observer ticks (watch snapshots, GC \
             samples); tick boundaries are deterministic.")
  in
  let json =
    Arg.(
      value & flag
      & info [ "json" ] ~doc:"Emit the soak/perf records as JSONL on stdout.")
  in
  let output =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE"
          ~doc:"Also write the JSONL records to $(docv).")
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
  let run tm all_tms txns procs conflict seed segment budget tick json
      output profile_file chrome_file gc_file watch =
    let impls = if all_tms then Registry.all else impls_of tm in
    let profiling = profile_file <> None || chrome_file <> None in
    let tracer = Sink.tracer Sink.default in
    let prof = Prof.create () in
    let chrome_spans = ref [] in
    let gc_lines = ref [] in
    let lines = ref [] in
    let first_stall = ref None in
    List.iter
      (fun impl ->
        let (module M : Tm_intf.S) = impl in
        if !first_stall = None then begin
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
          let w =
            make_watch ~enabled:watch ~label:("soak:" ^ M.name) ~every:10
          in
          let gcm = Gcstat.create () in
          if profiling then Span.reset tracer;
          let on_tick (p : Soak.progress) =
            watch_tick w;
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
                    ("tm", Obs_json.String M.name);
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
          let wall_ns =
            int_of_float ((Unix.gettimeofday () -. t0) *. 1e9)
          in
          watch_finish w;
          let p = o.Soak.progress in
          (* the byte-deterministic totals line *)
          lines :=
            Obs_json.Obj
              [
                Schema.field;
                ("type", Obs_json.String "soak");
                ("tm", Obs_json.String M.name);
                ("txns", Obs_json.Int p.Soak.txns_done);
                ("target", Obs_json.Int txns);
                ("aborts", Obs_json.Int p.Soak.aborts);
                ("steps", Obs_json.Int p.Soak.steps);
                ("segments", Obs_json.Int p.Soak.segments);
                ( "stop",
                  Obs_json.String
                    (match o.Soak.stall with
                    | None -> "completed"
                    | Some _ -> "stalled") );
              ]
            :: !lines;
          (* the perf record: the one place wall-clock and GC numbers
             are allowed *)
          (match
             Gcstat.report gcm ~wall_ns ~steps:p.Soak.steps
               ~txns:p.Soak.txns_done
           with
          | Obs_json.Obj fields ->
              lines :=
                Obs_json.Obj (fields @ [ ("tm", Obs_json.String M.name) ])
                :: !lines
          | j -> lines := j :: !lines);
          if not json then begin
            Format.printf "soak %-12s %d/%d txns (%d aborts) in %d steps, \
                           %d segments [%s]@."
              M.name p.Soak.txns_done txns p.Soak.aborts p.Soak.steps
              p.Soak.segments
              (match o.Soak.stall with
              | None -> "completed"
              | Some _ -> "STALLED");
            let fsteps = float_of_int (max 1 p.Soak.steps) in
            Format.printf "  perf: %.1f ns/step, %.1f words/step@."
              (float_of_int wall_ns /. fsteps)
              (Gcstat.allocated_words gcm /. fsteps)
          end;
          match o.Soak.stall with
          | None -> ()
          | Some st ->
              first_stall :=
                Some
                  (Reason.Soak_stall
                     {
                       tm = M.name;
                       pid = st.Soak.pid;
                       step = st.Soak.step;
                       obj = st.Soak.obj;
                       prim = st.Soak.prim;
                       txns = p.Soak.txns_done;
                       target = txns;
                     })
        end)
      impls;
    let jsonl =
      String.concat ""
        (List.rev_map (fun j -> Obs_json.to_string j ^ "\n") !lines)
    in
    (match output with
    | Some f ->
        let oc = open_out f in
        output_string oc jsonl;
        close_out oc
    | None -> ());
    if json then print_string jsonl;
    (match profile_file with
    | Some f ->
        let oc = open_out f in
        output_string oc (Prof.to_collapsed ~metric:Prof.Wall_ns prof);
        close_out oc;
        if not json then Format.printf "@.%a@." Prof.pp prof
    | None -> ());
    (match chrome_file with
    | Some f ->
        let oc = open_out f in
        output_string oc
          (Obs_json.to_string
             (Prof.spans_to_chrome (List.rev !chrome_spans)));
        close_out oc
    | None -> ());
    (match gc_file with
    | Some f ->
        let oc = open_out f in
        List.iter
          (fun j -> output_string oc (Obs_json.to_string j ^ "\n"))
          (List.rev !gc_lines);
        close_out oc
    | None -> ());
    match !first_stall with
    | Some r -> Reason.exit_with r
    | None -> ()
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
      const run $ tm_arg $ all_tms $ txns $ procs $ conflict $ seed
      $ segment $ budget $ tick $ json $ output $ profile_arg
      $ chrome_arg $ gc_arg $ watch_arg)

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
    Arg.(
      value & opt int 1
      & info [ "seed" ] ~docv:"SEED"
          ~doc:
            "Sweep seed: per-cell sub-seeds derive from it and the \
             scenario id, so the same seed reproduces the run byte for \
             byte.")
  in
  let json =
    Arg.(
      value & flag
      & info [ "json" ] ~doc:"Emit the conformance rows as JSONL on stdout.")
  in
  let output =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE"
          ~doc:"Also write the JSONL rows to $(docv).")
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
  let run tm files dir _all scenario_filter seed json output cells_flag
      journal_file resume check_only list_only inject_crash inject_stall
      watch =
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
            match impls_of tm with
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
      (* journal-reused rows for --resume: id -> (status, raw line), last
         occurrence wins (a re-run scenario appends a newer row) *)
      let reusable = Hashtbl.create 64 in
      if resume then
        List.iter
          (fun (id, status, line) ->
            if status = "pass" || status = "quarantine" then
              Hashtbl.replace reusable id line
            else Hashtbl.remove reusable id)
          (Scenario_run.journal_load journal_file);
      let journal =
        open_out_gen
          (if resume then [ Open_append; Open_creat ]
           else [ Open_wronly; Open_trunc; Open_creat ])
          0o644 journal_file
      in
      let w = make_watch ~enabled:watch ~label:"conform" ~every:10 in
      let lines = ref [] in
      let failed = ref [] and timeouts = ref [] in
      let quarantined = ref 0 and total_cells = ref 0 and reused = ref 0 in
      let table = ref [] in
      List.iter
        (fun s ->
          let id = s.Scenario.id in
          match Hashtbl.find_opt reusable id with
          | Some line ->
              incr reused;
              lines := (line ^ "\n") :: !lines;
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
              table := (id, status, cells, 0, true) :: !table
          | None ->
              let inject =
                if inject_crash = Some id then Scenario_run.Inject_crash
                else if inject_stall = Some id then Scenario_run.Inject_stall
                else Scenario_run.No_inject
              in
              let cell_lines = ref [] in
              let row = Scenario_run.run_row ~tick:(fun () -> watch_tick w)
                  ~inject ~seed s
              in
              if cells_flag then begin
                (* re-run cells are not re-executed here: cell rows ride
                   the same sweep, rendered from the row's failures plus
                   the passing cell list *)
                let failures = row.Scenario_run.failures in
                List.iter
                  (fun (impl, policy) ->
                    let tm = Registry.name impl in
                    let cm = policy.Cm.name in
                    let c =
                      match
                        List.find_opt
                          (fun (f : Scenario_run.cell) ->
                            f.Scenario_run.tm = tm
                            && f.Scenario_run.cm = cm)
                          failures
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
                    cell_lines :=
                      (Obs_json.to_string (Scenario_run.cell_json ~id c)
                      ^ "\n")
                      :: !cell_lines)
                  (Scenario_run.cells_of s)
              end;
              let line = Obs_json.to_string (Scenario_run.row_json row) in
              output_string journal (line ^ "\n");
              flush journal;
              lines := (line ^ "\n") :: List.rev_append !cell_lines !lines;
              if row.Scenario_run.status = "fail" then begin
                failed := id :: !failed;
                if
                  List.exists
                    (fun (f : Scenario_run.cell) ->
                      f.Scenario_run.reason = Some "timeout")
                    row.Scenario_run.failures
                then timeouts := id :: !timeouts
              end;
              if row.Scenario_run.status = "quarantine" then
                incr quarantined;
              total_cells := !total_cells + row.Scenario_run.cells;
              table :=
                (id, row.Scenario_run.status, row.Scenario_run.cells,
                 row.Scenario_run.failed, false)
                :: !table)
        scenarios;
      close_out journal;
      watch_finish w;
      let jsonl = String.concat "" (List.rev !lines) in
      (match output with
      | Some f ->
          let oc = open_out f in
          output_string oc jsonl;
          close_out oc
      | None -> ());
      if json then print_string jsonl
      else begin
        Format.printf "%-32s %-11s %5s %6s@." "scenario" "status" "cells"
          "failed";
        List.iter
          (fun (id, status, cells, failed, from_journal) ->
            Format.printf "%-32s %-11s %5d %6d%s@." id status cells failed
              (if from_journal then "  (journal)" else ""))
          (List.rev !table);
        Format.printf
          "@.%d scenario(s) (%d from the journal), %d cell(s), %d \
           failed, %d quarantined@."
          (List.length scenarios) !reused !total_cells
          (List.length !failed) !quarantined
      end;
      if !failed <> [] then
        Reason.exit_with
          (Reason.Conform_failure
             {
               failed = List.rev !failed;
               timeouts = List.rev !timeouts;
               scenarios = List.length scenarios;
               cells = !total_cells;
               quarantined = !quarantined;
             })
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
      const run $ tm_arg $ files $ dir $ all $ scenario_filter $ seed
      $ json $ output $ cells_flag $ journal_arg $ resume $ check_only
      $ list_only $ inject_crash $ inject_stall $ watch_arg)

(* ------------------------------------------------------------------ *)
(* report: run a workload silently, then dump the telemetry sink. *)

let report_workloads =
  [ "mixed"; "fuzz"; "scaling"; "verdict"; "liveness"; "explore" ]

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
  | "liveness" -> ignore (Liveness_class.classify impl)
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
             $(b,verdict), $(b,liveness) or $(b,explore).")
  in
  let iters =
    Arg.(
      value & opt int 10
      & info [ "n"; "iterations" ] ~docv:"N"
          ~doc:"Iterations (fuzz runs / txns per process).")
  in
  let seed =
    Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc:"RNG seed.")
  in
  let json =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:"Emit the sink as JSONL on stdout instead of a table.")
  in
  let output =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE"
          ~doc:"Also write the JSONL export to $(docv).")
  in
  let run tm workload iters seed json output =
    let impls = impls_of tm in
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
    List.iter (report_drive workload ~iters ~seed) impls;
    (match output with Some f -> Sink.write_jsonl sink f | None -> ());
    if json then print_string (Sink.to_jsonl sink)
    else if output = None then Format.printf "%a@." Sink.pp_table sink
  in
  Cmd.v
    (Cmd.info "report"
       ~doc:
         "Run a workload with the telemetry sink enabled and report the \
          aggregated counters, histograms and spans — as a table, as JSONL \
          on stdout ($(b,--json)), or to a file ($(b,-o)).")
    Term.(const run $ tm_arg $ workload $ iters $ seed $ json $ output)

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

(* The benchmark / experiment harness: one section per artifact of the
   paper (see DESIGN.md's experiment index).

     dune exec bench/main.exe             -- every section
     dune exec bench/main.exe -- fig5     -- one section
     dune exec bench/main.exe -- --json   -- machine-readable summary
                                             (BENCH_summary.json)

   Flags: --json, --out FILE, --iters N (txns per process in the scaling
   sweep, default 25), --seed N.

   Sections:
     fig1..fig6  the proof-construction artifacts (Figures 1-6), run
                 against the two TMs on which the construction completes
                 end to end (candidate and si-clock)
     triangle    the Section-5 triangle verdicts (T-A)
     scaling     disjoint vs conflicting throughput sweep (T-B)
     checkers    decision-procedure microbenchmarks, bechamel (T-C)
     flight      flight-recorder overhead on the mixed workload
     lint        per-pass pclsan cost over the recorded workload
     chaos       fault-hook overhead on the raw Memory.apply step path
     explore     interleaving-sweep throughput, naive DFS vs sleep-set DPOR
     cost        per-TM synchronization-cost matrix (RMRs, RMW-class
                 steps, wasted work) over the figure schedules and the
                 explore sweep
     soak        per-TM runtime cost of the segmented endurance driver
                 (ns/step and allocated words/step — the perf
                 regression gate's inputs)
     hierarchy   the anomaly x checker separation matrix (T-D)
*)

open Core

type cli = {
  json : bool;  (** write the machine-readable summary *)
  out : string;
  iters : int;  (** txns per process in the scaling sweep *)
  seed : int;
  sections : string list;
}

let parse_cli () : cli =
  let json = ref false
  and out = ref "BENCH_summary.json"
  and iters = ref 25
  and seed = ref 1
  and sections = ref [] in
  let int_arg flag = function
    | Some n -> n
    | None -> Fmt.failwith "%s expects an integer" flag
  in
  let rec go = function
    | [] -> ()
    | "--" :: rest -> go rest
    | "--json" :: rest ->
        json := true;
        go rest
    | "--out" :: f :: rest ->
        out := f;
        go rest
    | "--iters" :: n :: rest ->
        iters := int_arg "--iters" (int_of_string_opt n);
        go rest
    | "--seed" :: n :: rest ->
        seed := int_arg "--seed" (int_of_string_opt n);
        go rest
    | s :: _ when String.length s > 2 && String.sub s 0 2 = "--" ->
        Fmt.failwith
          "unknown flag %s (want --json, --out FILE, --iters N, --seed N \
           or section names)"
          s
    | s :: rest ->
        sections := s :: !sections;
        go rest
  in
  go (List.tl (Array.to_list Sys.argv));
  {
    json = !json;
    out = !out;
    iters = !iters;
    seed = !seed;
    sections = List.rev !sections;
  }

(* --json with no explicit sections runs only the machine-readable
   artifacts (the scaling sweep, the chaos fault-hook overhead and the
   exploration sweep); otherwise no sections means all. *)
let section_enabled cli name =
  let requested = cli.sections in
  (requested = []
  && ((not cli.json) || name = "scaling" || name = "chaos"
     || name = "explore" || name = "cost" || name = "soak"))
  || List.mem name requested
  || (List.mem "figures" requested
     && String.length name = 4
     && String.sub name 0 3 = "fig")

let banner name = Format.printf "@.=============== %s ===============@." name

(* ------------------------------------------------------------------ *)
(* Figures 1-6 *)

let figure_reports =
  lazy
    (List.filter_map
       (fun name ->
         let impl = Registry.find_exn name in
         let r = Pcl_claims.analyse impl in
         match r.Pcl_claims.outcome with
         | Ok d -> Some (name, d)
         | Error _ -> None)
       [ "candidate"; "si-clock" ])

let fig12 which =
  List.iter
    (fun (name, d) ->
      Format.printf "[%s]@." name;
      Format.printf "%a@."
        (fun ppf () -> Pcl_figures.pp_fig12 ppf which d.Pcl_claims.cons)
        ())
    (Lazy.force figure_reports)

let fig34 which =
  List.iter
    (fun (name, d) ->
      let c = d.Pcl_claims.cons in
      let label, atoms =
        match which with
        | `Fig3 -> ("beta", Pcl_constructions.beta c)
        | `Fig4 -> ("beta'", Pcl_constructions.beta' c)
      in
      Format.printf "[%s] %a@." name Pcl_figures.pp_schedule_line
        (label, atoms))
    (Lazy.force figure_reports)

let fig56 which =
  List.iter
    (fun (name, d) ->
      let side, tids =
        match which with
        | `Fig5 -> (d.Pcl_claims.beta, [ 1; 2; 3; 4; 7 ])
        | `Fig6 -> (d.Pcl_claims.beta', [ 1; 2; 5; 6; 7 ])
      in
      Format.printf "[%s]@.%a" name (Pcl_figures.pp_table tids side) ();
      List.iter
        (fun c -> Format.printf "  %a@." Pcl_figures.pp_check c)
        side.Pcl_claims.checks;
      Format.printf "@.")
    (Lazy.force figure_reports)

(* ------------------------------------------------------------------ *)
(* T-A: the triangle *)

let triangle () =
  let verdicts = List.map Pcl_verdict.assess Registry.all in
  Format.printf "%-12s %-13s %-13s %-13s@." "TM" "Parallelism" "Consistency"
    "Liveness";
  List.iter
    (fun (v : Pcl_verdict.t) ->
      let cell = function
        | Pcl_verdict.Holds -> "holds"
        | Pcl_verdict.Violated _ -> "VIOLATED"
      in
      Format.printf "%-12s %-13s %-13s %-13s@." v.Pcl_verdict.impl_name
        (cell v.Pcl_verdict.parallelism)
        (cell v.Pcl_verdict.consistency)
        (cell v.Pcl_verdict.liveness))
    verdicts;
  Format.printf "@.Details:@.";
  List.iter (fun v -> Format.printf "%a@." Pcl_verdict.pp v) verdicts

(* ------------------------------------------------------------------ *)
(* T-B: scaling sweep *)

type scaling_row = {
  tm : string;
  procs : int;
  conflict_pct : int;
  stats : Workload.stats;
}

let scaling ~iters ~seed () : scaling_row list =
  Format.printf "%-12s %-6s %-9s %8s %8s %8s %12s %12s %10s@." "TM" "procs"
    "conflict" "steps" "commits" "aborts" "steps/commit" "contentions"
    "disjoint!";
  let rows = ref [] in
  List.iter
    (fun impl ->
      let (module M : Tm_intf.S) = impl in
      List.iter
        (fun n_procs ->
          List.iter
            (fun conflict_pct ->
              let cfg =
                { Workload.default with Workload.n_procs; conflict_pct;
                  txns_per_proc = iters; seed }
              in
              let s = Workload.run impl cfg in
              rows :=
                { tm = M.name; procs = n_procs; conflict_pct; stats = s }
                :: !rows;
              Format.printf "%-12s %-6d %-9s %8d %8d %8d %12.1f %12d %10d%s@."
                M.name n_procs
                (Printf.sprintf "%d%%" conflict_pct)
                s.Workload.steps s.Workload.commits s.Workload.aborts
                (if s.Workload.commits = 0 then Float.nan
                 else
                   float_of_int s.Workload.steps
                   /. float_of_int s.Workload.commits)
                s.Workload.contentions s.Workload.disjoint_contentions
                (if s.Workload.completed then "" else "  [STALLED]"))
            [ 0; 50; 100 ])
        [ 2; 4; 8 ];
      Format.printf "@.")
    Registry.all;
  List.rev !rows

(* ------------------------------------------------------------------ *)
(* T-C: checker microbenchmarks (bechamel) *)

let sequential_history n_txns =
  let instrs =
    List.concat_map
      (fun k ->
        [ Build.B (k, ((k - 1) mod 3) + 1);
          Build.R (k, "x", k - 1);
          Build.W (k, "x", k); Build.C k ])
      (List.init n_txns (fun i -> i + 1))
  in
  Build.history instrs

let checkers () =
  let open Bechamel in
  let tests =
    List.concat_map
      (fun n ->
        let h = sequential_history n in
        List.map
          (fun (c : Spec.checker) ->
            Test.make
              ~name:(Printf.sprintf "%s/n=%d" c.Spec.name n)
              (Staged.stage (fun () -> ignore (c.Spec.check h))))
          [ Snapshot_isolation.checker; Processor_consistency.checker;
            Weak_adaptive.checker; Serializability.checker ])
      [ 2; 4; 6 ]
  in
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg = Benchmark.cfg ~limit:500 ~quota:(Time.second 0.25) ~kde:None () in
  let raw =
    Benchmark.all cfg [ instance ] (Test.make_grouped ~name:"checkers" tests)
  in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols instance raw in
  let rows = Hashtbl.fold (fun k v acc -> (k, v) :: acc) results [] in
  List.iter
    (fun (name, est) ->
      match Analyze.OLS.estimates est with
      | Some [ e ] -> Format.printf "  %-54s %14.0f ns/run@." name e
      | _ -> Format.printf "  %-54s (no estimate)@." name)
    (List.sort compare rows)

(* ------------------------------------------------------------------ *)
(* T-E: liveness profiles *)

let progress () =
  Format.printf
    "probe outcomes over every suspension point of a conflicting 2-item \
     writer:@.";
  Format.printf "%-12s %-22s %8s %8s %8s %8s@." "TM" "probe" "points"
    "commits" "aborts" "stalls";
  List.iter
    (fun impl ->
      let (module M : Tm_intf.S) = impl in
      List.iter
        (fun disjoint ->
          let p = Progress.run impl ~disjoint in
          Format.printf "%-12s %-22s %8d %8d %8d %8d@." M.name
            (if disjoint then "disjoint" else "conflicting")
            p.Progress.points p.Progress.commits p.Progress.aborts
            p.Progress.stalls)
        [ false; true ])
    Registry.all

(* ------------------------------------------------------------------ *)
(* T-F: empirical liveness classes *)

let liveness () =
  Format.printf "%-12s %-18s %s@." "TM" "class" "evidence";
  List.iter
    (fun impl ->
      let (module M : Tm_intf.S) = impl in
      let r = Liveness_class.classify impl in
      Format.printf "%-12s %-18s %s@." M.name
        (Liveness_class.cls_to_string r.Liveness_class.cls)
        r.Liveness_class.evidence)
    Registry.all

(* ------------------------------------------------------------------ *)
(* flight-recorder overhead: the mixed workload with recording off vs on.
   "off" is the shipping default — the only instrumentation on that path
   is a hook-installed check per Memory.apply. *)

let flight_overhead ~iters ~seed () =
  let cfg =
    { Workload.default with Workload.conflict_pct = 50;
      txns_per_proc = iters; seed }
  in
  let time f =
    ignore (f ());
    (* warm-up *)
    let best = ref infinity in
    for _ = 1 to 5 do
      let t0 = Sys.time () in
      ignore (f ());
      let dt = Sys.time () -. t0 in
      if dt < !best then best := dt
    done;
    !best
  in
  Format.printf
    "mixed workload (conflict 50%%, %d txns/proc), best of 5 runs:@." iters;
  Format.printf "%-12s %10s %14s %14s %9s@." "TM" "steps" "off ns/step"
    "on ns/step" "overhead";
  List.iter
    (fun impl ->
      let (module M : Tm_intf.S) = impl in
      let steps = ref 1 in
      let off =
        time (fun () ->
            let s = Workload.run impl cfg in
            steps := max 1 s.Workload.steps)
      in
      let fl = Flight.create () in
      let on =
        time (fun () ->
            Flight.with_recorder fl (fun () -> Workload.run impl cfg))
      in
      let ns t = t *. 1e9 /. float_of_int !steps in
      Format.printf "%-12s %10d %14.1f %14.1f %8.1f%%@." M.name !steps
        (ns off) (ns on)
        ((on -. off) /. off *. 100.))
    [ Registry.find_exn "tl-lock"; Registry.find_exn "candidate" ]

(* ------------------------------------------------------------------ *)
(* pclsan overhead: record the mixed workload once per TM, then time each
   lint pass alone over the same recorded input — the cost a CI lint run
   adds per recorded step, pass by pass. *)

let lint_overhead ~iters ~seed () =
  let cfg =
    { Workload.default with Workload.conflict_pct = 50;
      txns_per_proc = iters; seed }
  in
  let time f =
    ignore (f ());
    (* warm-up *)
    let best = ref infinity in
    for _ = 1 to 5 do
      let t0 = Sys.time () in
      ignore (f ());
      let dt = Sys.time () -. t0 in
      if dt < !best then best := dt
    done;
    !best
  in
  let tms = [ Registry.find_exn "tl-lock"; Registry.find_exn "candidate" ] in
  Format.printf
    "per-pass lint cost over the recorded mixed workload (conflict 50%%, \
     %d txns/proc), best of 5 runs:@."
    iters;
  Format.printf "%-16s" "pass \\ TM";
  List.iter
    (fun impl ->
      let (module M : Tm_intf.S) = impl in
      Format.printf "%16s" M.name)
    tms;
  Format.printf "%16s@." "unit";
  let inputs =
    List.map
      (fun impl ->
        let (module M : Tm_intf.S) = impl in
        let fl = Flight.create () in
        Flight.with_recorder fl (fun () -> ignore (Workload.run impl cfg));
        let input =
          { (Lint.input_of_flight fl) with Lint.tm = Some M.name }
        in
        (input.Lint.log.Access_log.len, input))
      tms
  in
  (* the happens-before analysis alone: every trace pass pays it *)
  Format.printf "%-16s" "hb-engine";
  List.iter
    (fun (steps, (input : Lint.input)) ->
      let dt =
        time (fun () -> Hb.analyse ~history:input.Lint.history input.Lint.log)
      in
      Format.printf "%16.1f" (dt *. 1e9 /. float_of_int (max 1 steps)))
    inputs;
  Format.printf "%16s@." "ns/step";
  List.iter
    (fun (pass : Lint.pass) ->
      Format.printf "%-16s" pass.Lint.name;
      List.iter
        (fun (steps, input) ->
          let dt = time (fun () -> pass.Lint.run Lint.default input) in
          Format.printf "%16.1f" (dt *. 1e9 /. float_of_int (max 1 steps)))
        inputs;
      Format.printf "%16s@." "ns/step")
    Lint_passes.trace_passes

(* ------------------------------------------------------------------ *)
(* chaos: fault-hook overhead on the raw step path.  The fault hook is
   consulted before every Memory.apply, so the number that matters is
   what an installed but never-firing hook costs per step — the price
   every chaos cell pays on top of the plain simulation (the shipping
   default is no hook at all). *)

type chaos_row = { prim : string; reps : int; off_ns : float; on_ns : float }

let chaos_overhead ~iters () =
  let reps = max 200_000 (iters * 8_000) in
  let time f =
    ignore (f ());
    (* warm-up *)
    let best = ref infinity in
    for _ = 1 to 5 do
      let t0 = Sys.time () in
      ignore (f ());
      let dt = Sys.time () -. t0 in
      if dt < !best then best := dt
    done;
    !best
  in
  let never_fires ~pid:_ ~tid:_ ~step:_ _ _ = None in
  let run prim hooked () =
    let mem = Memory.create () in
    let x = Memory.alloc mem ~name:"bench:x" (Value.int 0) in
    if hooked then Memory.set_fault_hook mem never_fires;
    for _ = 1 to reps do
      ignore (Memory.apply mem ~pid:1 x prim)
    done
  in
  Format.printf
    "fault-hook cost per Memory.apply (hook installed, never firing), %d \
     steps per run, best of 5 runs:@."
    reps;
  Format.printf "%-10s %14s %14s %9s@." "prim" "off ns/step" "on ns/step"
    "overhead";
  List.map
    (fun (name, prim) ->
      let off = time (run prim false) in
      let on = time (run prim true) in
      let ns t = t *. 1e9 /. float_of_int reps in
      Format.printf "%-10s %14.2f %14.2f %8.1f%%@." name (ns off) (ns on)
        ((on -. off) /. off *. 100.);
      { prim = name; reps; off_ns = ns off; on_ns = ns on })
    [
      ("read", Primitive.Read);
      ("write", Primitive.Write (Value.int 1));
      ("cas", Primitive.Cas { expected = Value.int 0; desired = Value.int 0 });
    ]

(* ------------------------------------------------------------------ *)
(* explore: interleaving-sweep throughput on the incremental engine —
   the stock writer/reader pair enumerated per TM with the naive DFS and
   again with sleep-set DPOR.  The search is deterministic, so a single
   run per mode suffices; the numbers that matter are nodes visited per
   second (engine throughput) and the reduction ratio (how much of the
   naive tree DPOR proves redundant while enumerating the same final
   histories). *)

type explore_row = {
  etm : string;
  naive_nodes : int;
  naive_execs : int;
  naive_secs : float;
  naive_truncated : bool;
  por_nodes : int;
  por_execs : int;
  por_secs : float;
  por_truncated : bool;
}

let explore_bench () : explore_row list =
  Format.printf
    "stock writer/reader sweep per TM, naive DFS vs sleep-set DPOR:@.";
  Format.printf "%-14s %9s %7s %10s %9s %7s %10s %7s@." "TM" "naive" "execs"
    "nodes/s" "por" "execs" "nodes/s" "ratio";
  List.map
    (fun impl ->
      let (module M : Tm_intf.S) = impl in
      let timed por =
        let t0 = Sys.time () in
        let _rows, st = Explore_sweep.run ~por impl in
        (st, Sys.time () -. t0)
      in
      let n, nt = timed false in
      let p, pt = timed true in
      let rate (st : Explorer.stats) t =
        if t <= 0. then Float.nan else float_of_int st.Explorer.nodes /. t
      in
      Format.printf "%-14s %9d %7d %10.0f %9d %7d %10.0f %6.1fx%s@." M.name
        n.Explorer.nodes n.Explorer.executions (rate n nt) p.Explorer.nodes
        p.Explorer.executions (rate p pt)
        (float_of_int n.Explorer.nodes
        /. float_of_int (max 1 p.Explorer.nodes))
        (if n.Explorer.truncated || p.Explorer.truncated then "  [truncated]"
         else "");
      {
        etm = M.name;
        naive_nodes = n.Explorer.nodes;
        naive_execs = n.Explorer.executions;
        naive_secs = nt;
        naive_truncated = n.Explorer.truncated;
        por_nodes = p.Explorer.nodes;
        por_execs = p.Explorer.executions;
        por_secs = pt;
        por_truncated = p.Explorer.truncated;
      })
    Registry.all

(* ------------------------------------------------------------------ *)
(* cost: the synchronization-cost matrix — deterministic, so the rows
   land in the summary verbatim and CI can diff them against the
   committed baseline *)

let cost_bench () : Cost_run.row list =
  let rows = List.concat_map Cost_run.rows_for Registry.all in
  Format.printf "%a@." Cost_run.pp_table rows;
  (match Cost_run.check rows with
  | [] -> Format.printf "expected-cost check: clean@."
  | vs ->
      List.iter
        (fun (tm, w, fields) ->
          Format.printf "expected-cost VIOLATION %s/%s: %s@." tm w
            (String.concat ", " fields))
        vs);
  rows

(* ------------------------------------------------------------------ *)
(* soak: per-TM runtime cost of the segmented endurance driver — ns per
   step (wall, machine-dependent) and allocated words per step (near
   deterministic for a pinned compiler), the two numbers the perf
   regression gate watches so later runtime work can't silently regress
   the hot path.  Steps and txns are simulator-deterministic and land
   in the baseline exactly. *)

type soak_row = {
  stm : string;
  s_txns : int;
  s_steps : int;
  s_wall_ns : int;
  s_words : float;
}

let soak_bench ~seed () : soak_row list =
  let txns = 2_000 in
  let cfg tm_seed = { Soak.default with Soak.txns; seed = tm_seed } in
  Format.printf
    "segmented soak, %d committed txns per TM (conflict %d%%), warm run:@."
    txns Soak.default.Soak.conflict_pct;
  Format.printf "%-14s %8s %10s %12s %12s@." "TM" "txns" "steps" "ns/step"
    "words/step";
  List.map
    (fun impl ->
      let (module M : Tm_intf.S) = impl in
      ignore (Soak.run impl (cfg seed));
      (* warm-up *)
      let gcm = Gcstat.create () in
      let t0 = Sys.time () in
      let o = Soak.run impl (cfg seed) in
      let wall_ns = int_of_float ((Sys.time () -. t0) *. 1e9) in
      let words = Gcstat.allocated_words gcm in
      let p = o.Soak.progress in
      let fsteps = float_of_int (max 1 p.Soak.steps) in
      (* pram-local commits without memory steps: per-step rates are 0 *)
      Format.printf "%-14s %8d %10d %12.1f %12.1f%s@." M.name
        p.Soak.txns_done p.Soak.steps
        (if p.Soak.steps = 0 then 0. else float_of_int wall_ns /. fsteps)
        (if p.Soak.steps = 0 then 0. else words /. fsteps)
        (if o.Soak.stall = None then "" else "  [STALLED]");
      {
        stm = M.name;
        s_txns = p.Soak.txns_done;
        s_steps = p.Soak.steps;
        s_wall_ns = wall_ns;
        s_words = words;
      })
    Registry.all

(* ------------------------------------------------------------------ *)
(* T-D: hierarchy matrix *)

let hierarchy () =
  let short = function
    | "opacity(final-state)" -> "opac"
    | "strict-serializability" -> "sser"
    | "serializability" -> "ser"
    | "causal-serializability" -> "caus"
    | "processor-consistency" -> "pc"
    | "pram" -> "pram"
    | "snapshot-isolation" -> "si"
  | "snapshot-isolation(ei)" -> "siei"
    | "weak-adaptive" -> "wac"
    | s -> s
  in
  Format.printf "%-28s" "history";
  List.iter
    (fun (c : Spec.checker) -> Format.printf "%-6s" (short c.Spec.name))
    Checkers.all;
  Format.printf "@.";
  List.iter
    (fun (a : Anomalies.anomaly) ->
      Format.printf "%-28s" a.Anomalies.name;
      List.iter
        (fun (c : Spec.checker) ->
          Format.printf "%-6s"
            (match c.Spec.check a.Anomalies.history with
            | Spec.Sat -> "yes"
            | Spec.Unsat -> "no"
            | Spec.Out_of_budget -> "?"))
        Checkers.all;
      Format.printf "@.")
    Anomalies.catalogue

(* ------------------------------------------------------------------ *)
(* the machine-readable summary: scaling rows + the telemetry snapshot *)

let row_json (r : scaling_row) : Obs_json.t =
  let s = r.stats in
  Obs_json.Obj
    [
      ("tm", Obs_json.String r.tm);
      ("procs", Obs_json.Int r.procs);
      ("conflict_pct", Obs_json.Int r.conflict_pct);
      ("steps", Obs_json.Int s.Workload.steps);
      ("commits", Obs_json.Int s.Workload.commits);
      ("aborts", Obs_json.Int s.Workload.aborts);
      ("contentions", Obs_json.Int s.Workload.contentions);
      ("disjoint_contentions", Obs_json.Int s.Workload.disjoint_contentions);
      ("completed", Obs_json.Bool s.Workload.completed);
    ]

let chaos_row_json (r : chaos_row) : Obs_json.t =
  Obs_json.Obj
    [
      ("prim", Obs_json.String r.prim);
      ("steps", Obs_json.Int r.reps);
      ("off_ns_per_step", Obs_json.Float r.off_ns);
      ("on_ns_per_step", Obs_json.Float r.on_ns);
    ]

let explore_row_json (r : explore_row) : Obs_json.t =
  let rate nodes secs =
    if secs <= 0. then 0. else float_of_int nodes /. secs
  in
  Obs_json.Obj
    [
      ("tm", Obs_json.String r.etm);
      ("naive_nodes", Obs_json.Int r.naive_nodes);
      ("naive_executions", Obs_json.Int r.naive_execs);
      ("naive_nodes_per_sec", Obs_json.Float (rate r.naive_nodes r.naive_secs));
      ("naive_truncated", Obs_json.Bool r.naive_truncated);
      ("por_nodes", Obs_json.Int r.por_nodes);
      ("por_executions", Obs_json.Int r.por_execs);
      ("por_nodes_per_sec", Obs_json.Float (rate r.por_nodes r.por_secs));
      ("por_truncated", Obs_json.Bool r.por_truncated);
      ( "reduction_ratio",
        Obs_json.Float
          (float_of_int r.naive_nodes /. float_of_int (max 1 r.por_nodes)) );
    ]

let soak_row_json (r : soak_row) : Obs_json.t =
  (* a TM that commits without shared-memory steps (pram-local) has no
     per-step rates: mark the row degenerate so ratchet tooling skips it
     instead of ratcheting against a 0/0 *)
  let degenerate = r.s_steps = 0 in
  let fsteps = float_of_int (max 1 r.s_steps) in
  Obs_json.Obj
    [
      ("tm", Obs_json.String r.stm);
      ("txns", Obs_json.Int r.s_txns);
      ("steps", Obs_json.Int r.s_steps);
      ("degenerate", Obs_json.Bool degenerate);
      ( "ns_per_step",
        Obs_json.Float
          (if degenerate then 0. else float_of_int r.s_wall_ns /. fsteps) );
      ( "words_per_step",
        Obs_json.Float (if degenerate then 0. else r.s_words /. fsteps) );
    ]

let write_summary cli (rows : scaling_row list) (chaos : chaos_row list)
    (explore : explore_row list) (cost : Cost_run.row list)
    (soak : soak_row list) =
  let metric_lines =
    List.filter
      (fun j ->
        Obs_json.member "type" j = Some (Obs_json.String "metric"))
      (Sink.jsonl_values Sink.default)
  in
  let doc =
    Obs_json.Obj
      [
        Schema.field;
        ("tool", Obs_json.String "bench");
        ("iters", Obs_json.Int cli.iters);
        ("seed", Obs_json.Int cli.seed);
        ("scaling", Obs_json.List (List.map row_json rows));
        ("chaos", Obs_json.List (List.map chaos_row_json chaos));
        ("explore", Obs_json.List (List.map explore_row_json explore));
        ("cost", Obs_json.List (List.map Cost_run.row_json cost));
        ("soak", Obs_json.List (List.map soak_row_json soak));
        ("metrics", Obs_json.List metric_lines);
      ]
  in
  let oc = open_out cli.out in
  output_string oc (Obs_json.to_string doc);
  output_char oc '\n';
  close_out oc;
  Format.printf "@.wrote %s (%d scaling rows, %d metric samples)@." cli.out
    (List.length rows) (List.length metric_lines)

let () =
  let cli = parse_cli () in
  Sink.set_meta Sink.default "tool" "bench";
  Sink.set_meta Sink.default "iters" (string_of_int cli.iters);
  Sink.set_meta Sink.default "seed" (string_of_int cli.seed);
  let scaling_rows = ref [] in
  let chaos_rows = ref [] in
  let explore_rows = ref [] in
  let cost_rows = ref [] in
  let soak_rows = ref [] in
  let sections =
    [
      ("fig1", fun () -> fig12 `Fig1);
      ("fig2", fun () -> fig12 `Fig2);
      ("fig3", fun () -> fig34 `Fig3);
      ("fig4", fun () -> fig34 `Fig4);
      ("fig5", fun () -> fig56 `Fig5);
      ("fig6", fun () -> fig56 `Fig6);
      ("triangle", triangle);
      ( "scaling",
        fun () ->
          scaling_rows := scaling ~iters:cli.iters ~seed:cli.seed () );
      ("checkers", checkers);
      ("flight", fun () -> flight_overhead ~iters:cli.iters ~seed:cli.seed ());
      ("lint", fun () -> lint_overhead ~iters:cli.iters ~seed:cli.seed ());
      ("chaos", fun () -> chaos_rows := chaos_overhead ~iters:cli.iters ());
      ("explore", fun () -> explore_rows := explore_bench ());
      ("cost", fun () -> cost_rows := cost_bench ());
      ("soak", fun () -> soak_rows := soak_bench ~seed:cli.seed ());
      ("hierarchy", hierarchy);
      ("progress", progress);
      ("liveness", liveness);
    ]
  in
  List.iter
    (fun (name, f) ->
      if section_enabled cli name then begin
        banner name;
        f ()
      end)
    sections;
  if cli.json then
    write_summary cli !scaling_rows !chaos_rows !explore_rows !cost_rows
      !soak_rows

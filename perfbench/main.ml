(* The workbench benchmark.

     main.exe --workload soak|explore|conform|lint --seed N --seconds S
              --trace 0|1

   --trace 0 measures the workload's end-to-end metrics with no tracing;
   --trace 1 measures every per-layer metric (the soak step ledger and
   the explore, conform and lint layer spans) plus the tracing overhead
   on the named workload.  Human-readable lines go first; the last line
   of standard output is one JSON object:
   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}.
   See METHOD.md next to this file. *)

open Core
open Perfbench

type args = { workload : Workloads.t; seed : int; seconds : float; trace : bool }

let usage =
  "main.exe --workload soak|explore|conform|lint --seed N --seconds S \
   --trace 0|1"

let parse_args () =
  let fail msg =
    prerr_endline (msg ^ "\nusage: " ^ usage);
    exit 2
  in
  let int_of flag s =
    match int_of_string_opt s with
    | Some n -> n
    | None -> fail (flag ^ " expects an integer, got " ^ s)
  in
  let rec go (w, seed, secs, tr) = function
    | [] -> (w, seed, secs, tr)
    | "--workload" :: v :: rest -> go (Some v, seed, secs, tr) rest
    | "--seed" :: v :: rest -> go (w, Some (int_of "--seed" v), secs, tr) rest
    | "--seconds" :: v :: rest ->
        go (w, seed, Some (int_of "--seconds" v), tr) rest
    | "--trace" :: v :: rest -> go (w, seed, secs, Some (int_of "--trace" v)) rest
    | a :: _ -> fail ("unexpected argument " ^ a)
  in
  match go (None, None, None, None) (List.tl (Array.to_list Sys.argv)) with
  | Some w, Some seed, Some secs, Some tr when secs > 0 && (tr = 0 || tr = 1)
    -> (
      match Workloads.find w with
      | Some workload ->
          { workload; seed; seconds = float_of_int secs; trace = tr = 1 }
      | None -> fail ("unknown workload " ^ w))
  | _ -> fail "missing or out-of-range argument"

(* -- accounting over every pass of the run ------------------------------ *)

let attempted = ref 0
let failed = ref 0
let mismatches = ref 0

(* A pass counts its operations; a pass whose deterministic output differs
   from the reference pass fails every operation it attempted. *)
let account ~(reference : Workloads.pass) (p : Workloads.pass) =
  attempted := !attempted + p.Workloads.ops;
  if p.Workloads.fingerprint <> reference.Workloads.fingerprint then begin
    incr mismatches;
    failed := !failed + p.Workloads.ops
  end
  else failed := !failed + p.Workloads.failed

let count (p : Workloads.pass) name =
  match List.assoc_opt name p.Workloads.counts with
  | Some v -> v
  | None -> Fmt.failwith "pass reports no count %s" name

(* -- output ------------------------------------------------------------- *)

type metric = { name : string; value : float; unit : string; detail : string }

let metric ?(detail = "") name unit value = { name; value; unit; detail }

(* the median of the samples, with their count and quartiles *)
let median_of name unit xs =
  let s = Sampler.summarise xs in
  metric name unit s.Sampler.median
    ~detail:
      (Printf.sprintf "n=%d q1=%.6g q3=%.6g spread=%.2f%%" s.Sampler.n
         s.Sampler.q1 s.Sampler.q3
         (100. *. Sampler.spread s))

let print_result ms =
  List.iter
    (fun m ->
      Printf.printf "%-44s %16.6g %-12s %s\n" m.name m.value m.unit m.detail)
    ms;
  let bad = List.filter (fun m -> not (Float.is_finite m.value)) ms in
  if bad <> [] then begin
    prerr_endline
      ("non-finite metric: "
      ^ String.concat ", " (List.map (fun m -> m.name) bad));
    exit 1
  end;
  let json =
    Obs_json.Obj
      [
        ("correct", Obs_json.Bool (!mismatches = 0));
        ("attempted", Obs_json.Int !attempted);
        ("failed", Obs_json.Int !failed);
        ( "metrics",
          Obs_json.Obj
            (List.map
               (fun m ->
                 ( m.name,
                   Obs_json.Obj
                     [
                       ("value", Obs_json.Float m.value);
                       ("unit", Obs_json.String m.unit);
                     ] ))
               ms) );
      ]
  in
  print_endline (Obs_json.to_string json)

let peak_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
  /. 1_048_576.

(* -- untraced: the end-to-end metrics ----------------------------------- *)

(* Set-up (inputs, worlds, one warm-up pass that fixes the reference
   output) is repeated this many times; its median is setup_s, and the
   heap's high-water mark after it is peak_heap_mb. *)
let setups = 3

let untraced (w : Workloads.t) ~seed ~seconds =
  let prepared =
    List.init setups (fun _ ->
        Sampler.measure (fun () ->
            let run = w.Workloads.prepare ~seed in
            (run, run None)))
  in
  let (run, reference), _ = List.hd prepared in
  List.iter (fun ((_, p), _) -> account ~reference p) prepared;
  (* taken before the time-bounded loop, whose length follows the
     machine's speed, so that it depends on the inputs alone *)
  let peak = peak_heap_mb () in
  let samples =
    Sampler.repeat ~warmup:false ~seconds ~min_samples:5 (fun () -> run None)
  in
  List.iter (fun (p, _) -> account ~reference p) samples;
  let per f = List.map (fun ((p : Workloads.pass), s) -> f p s) samples in
  let steps (p : Workloads.pass) = float_of_int (max 1 p.Workloads.steps) in
  let raw = Sampler.summarise (per (fun p s -> s.Sampler.wall_s *. 1e9 /. steps p)) in
  let cpu = Sampler.summarise (per (fun p s -> s.Sampler.cpu_s *. 1e9 /. steps p)) in
  let speed = Sampler.summarise (per (fun _ s -> s.Sampler.speed)) in
  Printf.printf
    "uncalibrated ns_per_step: median %.1f (q1 %.1f, q3 %.1f), CPU time %.1f; \
     machine speed %.3f (q1 %.3f, q3 %.3f)\n"
    raw.Sampler.median raw.Sampler.q1 raw.Sampler.q3 cpu.Sampler.median
    speed.Sampler.median speed.Sampler.q1 speed.Sampler.q3;
  [
    median_of "setup_s" "s" (List.map (fun (_, s) -> Sampler.ref_s s) prepared);
    median_of "ops_per_s" "1/s"
      (per (fun p s -> float_of_int p.Workloads.ops /. Sampler.ref_s s));
    median_of "ns_per_step" "ns"
      (per (fun p s -> Sampler.ref_s s *. 1e9 /. steps p));
    median_of "words_per_step" "words"
      (per (fun p s -> s.Sampler.words /. steps p));
    metric "peak_heap_mb" "MB" peak;
  ]

(* -- traced: the per-layer metrics -------------------------------------- *)

type traced = {
  pass : Workloads.pass;
  spans : Spans.t;
  speed : float;  (** machine speed around the pass (see Sampler) *)
  minor_gcs : int;
  major_gcs : int;
}

(* A reference pass untraced, then traced passes, each with its own span
   recorder and collection counts. *)
let traced_passes (w : Workloads.t) ~seed ~seconds ~min_samples =
  let run = w.Workloads.prepare ~seed in
  let reference = run None in
  account ~reference reference;
  List.map
    (fun (t, s) ->
      account ~reference t.pass;
      { t with speed = s.Sampler.speed })
    (Sampler.repeat ~warmup:false ~seconds ~min_samples (fun () ->
         let spans = Spans.create () in
         let g0 = Gc.quick_stat () in
         let pass = run (Some spans) in
         let g1 = Gc.quick_stat () in
         {
           pass;
           spans;
           speed = 1.;
           minor_gcs = g1.Gc.minor_collections - g0.Gc.minor_collections;
           major_gcs = g1.Gc.major_collections - g0.Gc.major_collections;
         }))

let per_pass ts f = List.map f ts

let first_counts = function
  | t :: _ -> t.pass
  | [] -> invalid_arg "no traced pass"

(* The gap between traced and untraced passes of the named workload,
   taken as adjacent calibrated pairs, alternating which of the two runs
   first. *)
let overhead (w : Workloads.t) ~seed ~seconds =
  let run = w.Workloads.prepare ~seed in
  let reference = run None in
  account ~reference reference;
  let timed tr =
    let p, s = Sampler.measure (fun () -> run tr) in
    account ~reference p;
    Sampler.ref_s s
  in
  let n = ref 0 in
  let pairs =
    Sampler.repeat ~warmup:false ~seconds ~min_samples:4 (fun () ->
        incr n;
        if !n mod 2 = 0 then
          let off = timed None in
          (off, timed (Some (Spans.create ())))
        else
          let on = timed (Some (Spans.create ())) in
          (timed None, on))
  in
  let off = Sampler.median (List.map (fun ((o, _), _) -> o) pairs) in
  let on = Sampler.median (List.map (fun ((_, o), _) -> o) pairs) in
  metric "trace.overhead_pct" "%" ((on -. off) /. off *. 100.)
    ~detail:(Printf.sprintf "%s, %d pairs" w.Workloads.name (List.length pairs))

(** Committed transactions per TM in the captured soak the ledger
    replays: the soak's own mix, fewer transactions. *)
let ledger_txns = 500

let soak_layers ~seed ~seconds =
  let cfg = { (Workloads.soak_config ~seed) with Soak.txns = ledger_txns } in
  let caps = List.map (fun impl -> Ledger.capture impl cfg) Registry.all in
  let bad = List.fold_left (fun a c -> a + Ledger.response_mismatches c) 0 caps in
  if bad > 0 then begin
    incr mismatches;
    Printf.printf "ledger replay: %d responses differ from the soak's\n" bad
  end;
  let l = Ledger.measure ~seconds:(0.7 *. seconds) ~min_rounds:5 caps in
  let row name = Ledger.row l name in
  let ledger_ms =
    [
      metric "sim.step_ns" "ns" l.Ledger.total.Ledger.ns;
      metric "sim.step_words" "words" l.Ledger.total.Ledger.words;
      metric "access_log.record_ns" "ns" (row "access_log.record").Ledger.ns;
      metric "access_log.record_words" "words"
        (row "access_log.record").Ledger.words;
      metric "memory.apply_ns" "ns" (row "memory.apply").Ledger.ns;
      metric "memory.apply_words" "words" (row "memory.apply").Ledger.words;
      metric "proc_scheduler.handoff_ns" "ns"
        (row "proc_scheduler.handoff").Ledger.ns;
      metric "proc_scheduler.handoff_words" "words"
        (row "proc_scheduler.handoff").Ledger.words;
      metric "schedule.feed_ns" "ns" (row "schedule.feed").Ledger.ns;
      metric "sim.cursor_ns" "ns" (row "sim.cursor").Ledger.ns;
      metric "recorder.event_ns" "ns" l.Ledger.event_ns;
      metric "recorder.events_per_step" "events/step" l.Ledger.events_per_step;
      metric "tm.logic_ns" "ns" (row "tm.logic").Ledger.ns;
      metric "tm.logic_words" "words" (row "tm.logic").Ledger.words;
      metric "ledger.sum_ns" "ns" (Ledger.sum_ns l);
      metric "ledger.gap_pct" "%" (100. *. Ledger.gap l)
        ~detail:
          (Printf.sprintf "tolerance %.0f%%, %s, %d rounds over %d steps"
             (100. *. Ledger.tolerance)
             (if Ledger.within_tolerance l then "within" else "OUTSIDE")
             l.Ledger.rounds l.Ledger.steps);
    ]
  in
  let ts =
    traced_passes Workloads.soak ~seed ~seconds:(0.3 *. seconds) ~min_samples:3
  in
  let p = first_counts ts in
  let per_tm =
    List.concat_map
      (fun impl ->
        let name = Registry.name impl in
        let steps = count p ("soak.steps." ^ name) in
        (* a TM that commits without memory steps has no per-step cost *)
        if steps = 0. then []
        else
          [
            median_of ("soak.ns_per_step." ^ name) "ns"
              (per_pass ts (fun t ->
                   Spans.total t.spans ("soak.run/" ^ name)
                   *. t.speed *. 1e9 /. steps));
            median_of ("soak.words_per_step." ^ name) "words"
              (per_pass ts (fun t ->
                   Spans.words t.spans ("soak.run/" ^ name) /. steps));
          ])
      Registry.all
  in
  let commits = count p "soak.commits" and aborts = count p "soak.aborts" in
  ledger_ms @ per_tm
  @ [
      metric "soak.steps" "count" (count p "soak.steps");
      metric "soak.commits" "count" commits;
      metric "soak.aborts" "count" aborts;
      metric "soak.commit_ratio" "ratio" (commits /. (commits +. aborts));
      metric "soak.segments" "count" (count p "soak.segments");
      median_of "gc.minor_collections" "count"
        (per_pass ts (fun t -> float_of_int t.minor_gcs));
      median_of "gc.major_collections" "count"
        (per_pass ts (fun t -> float_of_int t.major_gcs));
    ]

let checker_keys =
  List.map (fun (c : Spec.checker) -> Workloads.checker_key c.Spec.name)
    Checkers.all

let explore_layers ~seed ~seconds =
  let ts =
    traced_passes Workloads.explore ~seed ~seconds ~min_samples:3
  in
  let p = first_counts ts in
  let nodes = count p "explorer.nodes" in
  let executions = count p "explorer.executions" in
  let satisfied_us =
    List.concat_map
      (fun t ->
        List.map
          (fun d -> d *. t.speed *. 1e6)
          (Spans.durations t.spans "checkers.satisfied"))
      ts
  in
  let calls = List.fold_left (fun a k -> a +. count p ("checker_calls." ^ k)) 0. checker_keys in
  [
    median_of "explorer.search_ns_per_node" "ns"
      (per_pass ts (fun t ->
           Spans.self t.spans "explorer.explore" *. t.speed *. 1e9 /. nodes));
    metric "checkers.satisfied_us.p50" "us" (Sampler.percentile satisfied_us 50.);
    metric "checkers.satisfied_us.p99" "us" (Sampler.percentile satisfied_us 99.)
      ~detail:(Printf.sprintf "n=%d" (List.length satisfied_us));
  ]
  @ List.map
      (fun k ->
        median_of ("checkers." ^ k ^ "_us") "us"
          (per_pass ts (fun t ->
               count t.pass ("checker_ns." ^ k)
               *. t.speed /. 1e3
               /. Float.max 1. (count t.pass ("checker_calls." ^ k)))))
      checker_keys
  @ [
      median_of "checkers.share_pct" "%"
        (per_pass ts (fun t ->
             100. *. Spans.total t.spans "checkers.satisfied"
             /. Spans.total t.spans "explorer.explore"));
      metric "explorer.nodes" "count" nodes;
      metric "explorer.executions" "count" executions;
      metric "explorer.replays" "count" (count p "explorer.replays");
      metric "explorer.sleep_pruned" "count" (count p "explorer.sleep_pruned");
      metric "explorer.truncated" "count" (count p "explorer.truncated")
        ~detail:
          (Printf.sprintf "%.0f by depth bound, %.0f by node budget"
             (count p "explorer.truncated_depth")
             (count p "explorer.truncated_nodes"));
      metric "explorer.truncated_depth" "count" (count p "explorer.truncated_depth");
      metric "explorer.truncated_nodes" "count" (count p "explorer.truncated_nodes");
      metric "checkers.calls" "count" calls;
      metric "checkers.strict_ser_sat_ratio" "ratio"
        (count p "checkers.strict_ser_sat" /. executions);
    ]

let conform_layers ~seed ~seconds =
  let load_ms =
    List.map
      (fun (_, s) -> Sampler.ref_s s *. 1e3)
      (Sampler.repeat ~seconds:0.2 ~min_samples:5 (fun () ->
           Workloads.load_catalogue None))
  in
  let ts =
    traced_passes Workloads.conform ~seed ~seconds ~min_samples:2
  in
  let p = first_counts ts in
  let families = List.map Scenario.family_to_string Scenario.families in
  let faults = List.map Fault.name Fault.all in
  let cell_ms ~families ~faults =
    List.concat_map
      (fun t ->
        List.concat_map
          (fun family ->
            List.concat_map
              (fun fault ->
                List.map
                  (fun d -> d *. t.speed *. 1e3)
                  (Spans.durations t.spans (Workloads.cell_span ~family ~fault)))
              faults)
          families)
      ts
  in
  let mean xs =
    List.fold_left ( +. ) 0. xs /. float_of_int (max 1 (List.length xs))
  in
  let all_ms = cell_ms ~families ~faults in
  [
    median_of "scenario.load_ms" "ms" load_ms;
    metric "scenario_run.cell_ms.p50" "ms" (Sampler.percentile all_ms 50.);
    metric "scenario_run.cell_ms.p98" "ms" (Sampler.percentile all_ms 98.)
      ~detail:(Printf.sprintf "n=%d" (List.length all_ms));
  ]
  @ List.map
      (fun fault ->
        metric ("scenario_run.cell_ms." ^ fault) "ms"
          (mean (cell_ms ~families ~faults:[ fault ])))
      faults
  @ List.map
      (fun family ->
        metric ("scenario_run.cell_ms." ^ family) "ms"
          (mean (cell_ms ~families:[ family ] ~faults)))
      families
  @ [
      median_of "checkers.conform_ms" "ms"
        (per_pass ts (fun t ->
             List.fold_left
               (fun a k -> a +. count t.pass ("checker_ns." ^ k))
               0. checker_keys
             *. t.speed /. 1e6));
      metric "conform.cells" "count" (count p "conform.cells");
      metric "conform.failed" "count" (count p "conform.failed");
      metric "conform.timeouts" "count" (count p "conform.timeouts");
      metric "conform.quarantined" "count" (count p "conform.quarantined");
      metric "crash_closure.skipped" "count" (count p "crash_closure.skipped");
    ]

let lint_layers ~seed ~seconds =
  let ts = traced_passes Workloads.lint ~seed ~seconds:(0.5 *. seconds) ~min_samples:3 in
  let p = first_counts ts in
  let steps = float_of_int (max 1 p.Workloads.steps) in
  let per_step name = median_of (name ^ "_ns") "ns" in
  let span_ns name =
    per_pass ts (fun t -> Spans.total t.spans name *. t.speed *. 1e9 /. steps)
  in
  (* the recorder's cost: the same workload runs with and without it *)
  let cfg = Workloads.lint_config in
  let impls = Registry.all in
  let pairs =
    Sampler.repeat ~seconds:(0.25 *. seconds) ~min_samples:5 (fun () ->
        let (), off =
          Sampler.measure (fun () ->
              List.iter (fun impl -> ignore (Workload.run impl cfg)) impls)
        in
        let (), on =
          Sampler.measure (fun () ->
              List.iter (fun impl -> ignore (Workloads.record impl cfg)) impls)
        in
        (Sampler.ref_s off, Sampler.ref_s on))
  in
  let inputs = Workloads.lint_inputs () in
  let hb =
    Sampler.repeat ~seconds:(0.25 *. seconds) ~min_samples:5 (fun () ->
        List.iter
          (fun (_, (i : Lint.input)) ->
            ignore (Hb.analyse ~history:i.Lint.history i.Lint.log))
          inputs)
  in
  [
    metric "flight.record_ns" "ns"
      ((Sampler.median (List.map (fun ((_, on), _) -> on) pairs)
       -. Sampler.median (List.map (fun ((off, _), _) -> off) pairs))
      *. 1e9 /. steps)
      ~detail:(Printf.sprintf "%d pairs" (List.length pairs));
    per_step "lint.input" (span_ns "lint.input");
    median_of "hb.analyse_ns" "ns"
      (List.map (fun (_, s) -> Sampler.ref_s s *. 1e9 /. steps) hb);
  ]
  @ List.map
      (fun (pass : Lint.pass) ->
        median_of ("lint.pass_ns." ^ pass.Lint.name) "ns"
          (span_ns ("lint.pass/" ^ pass.Lint.name)))
      (Lints.all ())
  @ [
      metric "lint.findings" "count" (count p "lint.findings");
      metric "lint.unexpected" "count" (count p "lint.unexpected");
    ]

let traced (w : Workloads.t) ~seed ~seconds =
  let share f = f *. seconds in
  let oh = overhead w ~seed ~seconds:(share 0.2) in
  (oh :: soak_layers ~seed ~seconds:(share 0.35))
  @ explore_layers ~seed ~seconds:(share 0.1)
  @ conform_layers ~seed ~seconds:(share 0.15)
  @ lint_layers ~seed ~seconds:(share 0.2)

let () =
  let a = parse_args () in
  Printf.printf "workload %s, seed %d, %.0f s, trace %b\n%!"
    a.workload.Workloads.name a.seed a.seconds a.trace;
  let ms =
    if a.trace then traced a.workload ~seed:a.seed ~seconds:a.seconds
    else untraced a.workload ~seed:a.seed ~seconds:a.seconds
  in
  print_result ms

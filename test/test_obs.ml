(* The telemetry layer: metric aggregation, span nesting, the JSONL
   export round-trip, and the simulator integration (step counters must
   agree with the replay's own accounting). *)

open Core

(* ------------------------------------------------------------------ *)
(* counters *)

let test_counter_aggregation () =
  let m = Metrics.create () in
  let c = Metrics.counter m "requests_total" ~labels:[ ("tm", "a") ] in
  Metrics.inc c;
  Metrics.inc c;
  Metrics.add c 3;
  Alcotest.(check int) "handle value" 5 (Metrics.counter_value c);
  (* label order is irrelevant: same cell either way *)
  Metrics.incr_c m "multi_total" ~labels:[ ("x", "1"); ("y", "2") ];
  Metrics.incr_c m "multi_total" ~labels:[ ("y", "2"); ("x", "1") ];
  Alcotest.(check (option (of_pp Fmt.nop)))
    "canonical labels merge"
    (Some (Metrics.VCounter 2))
    (Metrics.find m "multi_total" ~labels:[ ("x", "1"); ("y", "2") ]);
  (* one-shots hit the same cell as the handle *)
  Metrics.incr_c m "requests_total" ~labels:[ ("tm", "a") ];
  Alcotest.(check int) "one-shot merges" 6 (Metrics.counter_value c);
  (* sum over label sets *)
  Metrics.add_c m "requests_total" ~labels:[ ("tm", "b") ] 10;
  Alcotest.(check int) "sum_counters" 16
    (Metrics.sum_counters m "requests_total");
  (* kind mismatch is a programming error *)
  (try
     ignore (Metrics.histogram m "requests_total" ~labels:[ ("tm", "a") ]);
     Alcotest.fail "expected Invalid_argument on kind mismatch"
   with Invalid_argument _ -> ());
  (* reset zeroes in place; the old handle stays usable *)
  Metrics.reset m;
  Alcotest.(check int) "reset zeroes" 0 (Metrics.counter_value c);
  Metrics.inc c;
  Alcotest.(check int) "handle survives reset" 1 (Metrics.counter_value c)

let test_histogram_stats () =
  let m = Metrics.create () in
  let h = Metrics.histogram m "latency_ns" in
  List.iter (Metrics.observe h) [ 5.0; 1.0; 3.0 ];
  (match Metrics.find m "latency_ns" with
  | Some (Metrics.VHistogram s) ->
      Alcotest.(check int) "count" 3 s.Metrics.count;
      Alcotest.(check (float 1e-9)) "sum" 9.0 s.Metrics.sum;
      Alcotest.(check (float 1e-9)) "min" 1.0 s.Metrics.min;
      Alcotest.(check (float 1e-9)) "max" 5.0 s.Metrics.max
  | _ -> Alcotest.fail "expected histogram");
  (* snapshot is sorted and typed *)
  Metrics.incr_c m "a_total";
  (match Metrics.snapshot m with
  | [ a; l ] ->
      Alcotest.(check string) "sorted first" "a_total" a.Metrics.name;
      Alcotest.(check string) "sorted second" "latency_ns" l.Metrics.name
  | _ -> Alcotest.fail "expected two samples")

(* ------------------------------------------------------------------ *)
(* quantiles: for up to [sample_cap] observations the sample buffer is
   complete, so p50/p95/p99 must equal the exact nearest-rank quantiles
   of the sorted data; above the cap they are decimated estimates but
   stay ordered and bracketed by min/max *)

let exact_nearest_rank xs q =
  let sorted = List.sort compare xs in
  let n = List.length sorted in
  let rank = max 0 (min (n - 1) (int_of_float (ceil (q *. float n)) - 1)) in
  List.nth sorted rank

let quantile_law =
  QCheck.Test.make ~name:"histogram quantiles: exact under cap, ordered"
    ~count:200
    QCheck.(list_of_size Gen.(1 -- 80) (map (fun x -> Float.abs x) float))
    (fun xs ->
      let m = Metrics.create () in
      let h = Metrics.histogram m "q_ns" in
      List.iter (Metrics.observe h) xs;
      match Metrics.find m "q_ns" with
      | Some (Metrics.VHistogram s) ->
          let close a b = Float.abs (a -. b) < 1e-9 in
          close s.Metrics.p50 (exact_nearest_rank xs 0.50)
          && close s.Metrics.p95 (exact_nearest_rank xs 0.95)
          && close s.Metrics.p99 (exact_nearest_rank xs 0.99)
          && s.Metrics.p50 <= s.Metrics.p95
          && s.Metrics.p95 <= s.Metrics.p99
          && s.Metrics.min <= s.Metrics.p50
          && s.Metrics.p99 <= s.Metrics.max
      | _ -> false)

let test_quantiles_over_cap () =
  (* 10_000 >> sample_cap: the decimated estimates of a uniform ramp
     stay ordered, bracketed, and near the true quantiles *)
  let m = Metrics.create () in
  let h = Metrics.histogram m "ramp_ns" in
  for i = 1 to 10_000 do
    Metrics.observe h (float_of_int i)
  done;
  match Metrics.find m "ramp_ns" with
  | Some (Metrics.VHistogram s) ->
      Alcotest.(check int) "count" 10_000 s.Metrics.count;
      Alcotest.(check bool) "ordered" true
        (s.Metrics.p50 <= s.Metrics.p95 && s.Metrics.p95 <= s.Metrics.p99);
      Alcotest.(check bool) "bracketed" true
        (s.Metrics.min <= s.Metrics.p50 && s.Metrics.p99 <= s.Metrics.max);
      let near q v = Float.abs (v -. (q *. 10_000.0)) < 500.0 in
      Alcotest.(check bool) "p50 near median" true (near 0.50 s.Metrics.p50);
      Alcotest.(check bool) "p95 near rank" true (near 0.95 s.Metrics.p95)
  | _ -> Alcotest.fail "expected histogram"

(* ------------------------------------------------------------------ *)
(* spans *)

let test_span_nesting () =
  let now = ref 0.0 and steps = ref 0 in
  let t = Span.create ~clock:(fun () -> !now) ~steps:(fun () -> !steps) () in
  let r =
    Span.with_ t "outer" (fun () ->
        steps := 2;
        let inner =
          Span.with_ t ~labels:[ ("k", "v") ] "inner" (fun () ->
              now := 0.001;
              steps := 5;
              42)
        in
        steps := 7;
        inner)
  in
  Alcotest.(check int) "thunk result" 42 r;
  match Span.spans t with
  | [ inner; outer ] ->
      (* inner completes first *)
      Alcotest.(check string) "inner name" "inner" inner.Span.name;
      Alcotest.(check int) "inner depth" 1 inner.Span.depth;
      Alcotest.(check int) "inner seq" 0 inner.Span.seq;
      Alcotest.(check int) "inner start" 2 inner.Span.start_step;
      Alcotest.(check int) "inner end" 5 inner.Span.end_step;
      Alcotest.(check int) "inner steps" 3 (Span.steps_of inner);
      Alcotest.(check int) "inner wall" 1_000_000 inner.Span.wall_ns;
      Alcotest.(check string) "outer name" "outer" outer.Span.name;
      Alcotest.(check int) "outer depth" 0 outer.Span.depth;
      Alcotest.(check int) "outer steps" 7 (Span.steps_of outer)
  | l -> Alcotest.failf "expected two spans, got %d" (List.length l)

let test_span_cap () =
  let t = Span.create ~cap:2 ~clock:(fun () -> 0.0) () in
  for _ = 1 to 5 do
    Span.with_ t "s" (fun () -> ())
  done;
  Alcotest.(check int) "kept" 2 (Span.count t);
  Alcotest.(check int) "dropped" 3 (Span.dropped t)

(* ------------------------------------------------------------------ *)
(* JSONL export *)

let test_jsonl_roundtrip () =
  let sink = Sink.default in
  Sink.reset sink;
  Sink.set_meta sink "tool" "test";
  Sink.incr ~labels:[ ("tm", "x") ] "roundtrip_total";
  Sink.observe "roundtrip_ns" 125.5;
  Sink.span "roundtrip.span" (fun () -> ());
  let lines =
    String.split_on_char '\n' (String.trim (Sink.to_jsonl sink))
  in
  Alcotest.(check int) "line count" 4 (List.length lines);
  (* every line parses, and re-printing reproduces it exactly *)
  let parsed =
    List.map
      (fun line ->
        match Obs_json.parse line with
        | Ok j ->
            Alcotest.(check string) "reprint" line (Obs_json.to_string j);
            j
        | Error e -> Alcotest.failf "parse error on %s: %s" line e)
      lines
  in
  let typ j = Option.bind (Obs_json.member "type" j) Obs_json.to_str in
  (match parsed with
  | run :: _ ->
      Alcotest.(check (option string)) "run line" (Some "run") (typ run);
      Alcotest.(check (option string))
        "meta" (Some "test")
        Option.(
          bind (Obs_json.member "meta" run) (Obs_json.member "tool")
          |> Fun.flip bind Obs_json.to_str)
  | [] -> Alcotest.fail "no lines");
  let metric name =
    List.find
      (fun j ->
        typ j = Some "metric"
        && Option.bind (Obs_json.member "name" j) Obs_json.to_str = Some name)
      parsed
  in
  let c = metric "roundtrip_total" in
  Alcotest.(check (option int)) "counter value" (Some 1)
    (Option.bind (Obs_json.member "value" c) Obs_json.to_int);
  Alcotest.(check (option string)) "counter label" (Some "x")
    Option.(
      bind (Obs_json.member "labels" c) (Obs_json.member "tm")
      |> Fun.flip bind Obs_json.to_str);
  let h = metric "roundtrip_ns" in
  Alcotest.(check (option (float 1e-9))) "hist sum" (Some 125.5)
    (Option.bind (Obs_json.member "sum" h) Obs_json.to_float);
  let span =
    List.find (fun j -> typ j = Some "span") parsed
  in
  Alcotest.(check (option string)) "span name" (Some "roundtrip.span")
    (Option.bind (Obs_json.member "name" span) Obs_json.to_str);
  Sink.reset sink

(* ------------------------------------------------------------------ *)
(* simulator integration: replay counters agree with the replay itself *)

let test_replay_counters () =
  let sink = Sink.default in
  Sink.reset sink;
  let x = Item.v "x" in
  let specs =
    [
      { Static_txn.tid = Tid.v 1; pid = 1; reads = [];
        writes = [ (x, Value.int 1) ] };
      { Static_txn.tid = Tid.v 2; pid = 2; reads = [ x ]; writes = [] };
    ]
  in
  let impl = Registry.find_exn "tl-lock" in
  let outcomes = Hashtbl.create 4 in
  let setup mem recorder =
    let handle =
      Txn_api.instantiate impl mem recorder ~items:(Static_txn.items_of specs)
    in
    List.map
      (fun s -> (s.Static_txn.pid, Static_txn.program handle s ~outcomes))
      specs
  in
  let r =
    Sim.replay ~budget:1_000 setup
      [ Schedule.Until_done 1; Schedule.Until_done 2 ]
  in
  let m = Sink.metrics sink in
  let n_steps = Memory.step_count r.Sim.mem in
  Alcotest.(check int) "mem_steps_total = |log|" n_steps
    (Metrics.sum_counters m "mem_steps_total");
  Alcotest.(check int) "per-pid steps sum to |log|" n_steps
    (Metrics.sum_counters m "sched_pid_steps_total");
  Alcotest.(check int) "per-pid matches steps_of" (r.Sim.steps_of 1)
    (match
       Metrics.find m "sched_pid_steps_total" ~labels:[ ("pid", "1") ]
     with
    | Some (Metrics.VCounter n) -> n
    | _ -> -1);
  Alcotest.(check int) "one replay" 1
    (Metrics.sum_counters m "sim_replay_total");
  Alcotest.(check int) "both txns committed" 2
    (Metrics.sum_counters m "tm_commit_total");
  Alcotest.(check int) "prim counts also sum to |log|" n_steps
    (Metrics.sum_counters m "mem_prim_total");
  (* the replay span was recorded with step bounds *)
  (match
     List.filter (fun s -> s.Span.name = "sim.replay")
       (Span.spans (Sink.tracer sink))
   with
  | [ s ] -> Alcotest.(check int) "span steps" n_steps (Span.steps_of s)
  | l -> Alcotest.failf "expected one sim.replay span, got %d" (List.length l));
  Sink.reset sink

(* the per-pid step counter counts where the memory counts, so a
   cursor-driven run attributes every step: the explorer advances live
   worlds with [Sim.step] and rebuilds forks by replaying their prefix,
   neither of which goes through [Sim.replay] *)
let test_cursor_pid_steps () =
  let sink = Sink.default in
  Sink.reset sink;
  let x = Item.v "x" and y = Item.v "y" in
  let specs =
    [
      { Static_txn.tid = Tid.v 1; pid = 1; reads = [ y ];
        writes = [ (x, Value.int 1) ] };
      { Static_txn.tid = Tid.v 2; pid = 2; reads = [ x ];
        writes = [ (y, Value.int 2) ] };
    ]
  in
  let impl = Registry.find_exn "tl2-clock" in
  let setup mem recorder =
    let handle =
      Txn_api.instantiate impl mem recorder ~items:(Static_txn.items_of specs)
    in
    List.map
      (fun s ->
        ( s.Static_txn.pid,
          Static_txn.program handle s ~outcomes:(Hashtbl.create 4) ))
      specs
  in
  let stats =
    Explorer.explore setup ~pids:[ 1; 2 ] ~on_execution:(fun _ -> ())
  in
  let m = Sink.metrics sink in
  Alcotest.(check bool) "the search replayed prefixes" true
    (stats.Explorer.replays > 0);
  Alcotest.(check int) "no Sim.replay" 0
    (Metrics.sum_counters m "sim_replay_total");
  let steps = Metrics.sum_counters m "mem_steps_total" in
  Alcotest.(check bool) "steps taken" true (steps > 0);
  Alcotest.(check int) "per-pid steps sum to mem_steps_total" steps
    (Metrics.sum_counters m "sched_pid_steps_total");
  Alcotest.(check bool) "both pids attributed" true
    (List.for_all
       (fun pid ->
         match
           Metrics.find m "sched_pid_steps_total"
             ~labels:[ ("pid", string_of_int pid) ]
         with
         | Some (Metrics.VCounter n) -> n > 0
         | _ -> false)
       [ 1; 2 ]);
  Sink.reset sink

(* A spin appended in bulk costs chunks, not steps: a million repeats of
   a read in a TM's world allocate under one word per step (per-step
   column fills cost about five), and the TM's [tm_mem_prim_total] still
   counts every step.  Metered with [Gcstat], which counts minor words exactly
   ([Gc.allocated_bytes] lags until a minor collection). *)
let test_bulk_append_allocation () =
  let sink = Sink.default in
  Sink.reset sink;
  let mem = Memory.create () in
  let recorder = Recorder.create () in
  let x = Item.v "x" in
  ignore
    (Txn_api.instantiate (Registry.find_exn "tl-lock") mem recorder
       ~items:[ x ]);
  let o = Memory.alloc mem ~name:"spin" (Value.int 0) in
  ignore (Memory.apply mem ~pid:3 o Primitive.Read);
  let m = Sink.metrics sink in
  let prims () = Metrics.sum_counters m "tm_mem_prim_total" in
  let before = prims () in
  let n = 1_000_000 in
  let gc = Gcstat.create () in
  let appended = Memory.repeat_last mem n in
  let words = Gcstat.allocated_words gc in
  Alcotest.(check bool) "appended" true appended;
  Alcotest.(check int) "log length" (n + 1) (Memory.step_count mem);
  if words >= float_of_int n then
    Alcotest.failf "bulk append allocated %.0f words for %d steps" words n;
  Alcotest.(check int) "tm_mem_prim_total advances by n" n (prims () - before);
  Alcotest.(check int) "mem_steps_total" (n + 1)
    (Metrics.sum_counters m "mem_steps_total");
  Alcotest.(check int) "sched_pid_steps_total" (n + 1)
    (Metrics.sum_counters m "sched_pid_steps_total");
  Sink.reset sink

(* A scheduler run of one step costs what a single step costs: the run
   loops close over nothing, so [run_steps s pid 1] (one per live
   cursor step) allocates within a word of [step s pid] on an identical
   program *)
let test_run_steps_allocation () =
  let n = 10_000 in
  let world () =
    let mem = Memory.create () in
    let o = Memory.alloc mem ~name:"o" (Value.int 0) in
    let s = Scheduler.create mem in
    Scheduler.spawn s ~pid:1 (fun () ->
        for _ = 0 to n do
          ignore (Proc.access_t ~tid:None o Primitive.Read)
        done);
    (* the first step starts the process; both worlds pay it unmeasured *)
    ignore (Scheduler.step s 1);
    s
  in
  (* [Gc.minor_words] reads the allocation pointer, so it is exact
     between two calls; [Gc.allocated_bytes] lags until a collection *)
  let words f =
    let a0 = Gc.minor_words () in
    f ();
    Gc.minor_words () -. a0
  in
  let stepped = world () and run = world () in
  let w_step =
    words (fun () ->
        for _ = 1 to n do
          ignore (Scheduler.step stepped 1)
        done)
  in
  let w_run =
    words (fun () ->
        for _ = 1 to n do
          ignore (Scheduler.run_steps run 1 1)
        done)
  in
  let gap = (w_run -. w_step) /. float_of_int n in
  if gap > 1.0 then
    Alcotest.failf "run_steps allocated %.2f words per call more than step"
      gap;
  Alcotest.(check int) "same log length"
    (Memory.step_count (Scheduler.memory stepped))
    (Memory.step_count (Scheduler.memory run))

(* A step allocates only the continuation its [perform] captures (two
   words) and its share of the log's column chunks (about five): the
   request is written into the process's slot in place and the effect is
   a constant, so no request, effect or [Pending] box is built.  Read
   with [Gc.minor_words], as above. *)
let test_step_allocation () =
  let n = 10_000 in
  let mem = Memory.create () in
  let o = Memory.alloc mem ~name:"o" (Value.int 0) in
  let s = Scheduler.create mem in
  Scheduler.spawn s ~pid:1 (fun () ->
      for _ = 0 to n do
        ignore (Proc.access_t ~tid:None o Primitive.Read)
      done);
  ignore (Scheduler.step s 1);
  let a0 = Gc.minor_words () in
  for _ = 1 to n do
    ignore (Scheduler.step s 1)
  done;
  let per_step = (Gc.minor_words () -. a0) /. float_of_int n in
  if per_step > 7.5 then
    Alcotest.failf "a step allocated %.2f words (bound 7.5)" per_step;
  Alcotest.(check int) "steps logged" (n + 1) (Memory.step_count mem)

(* A transaction allocates only what it keeps: one record for the
   attempt, what pram-local itself allocates, and the recorder's event
   columns (twelve events an attempt, about four words each).  10,000
   attempts of begin, two reads, two writes and a commit, outside a
   scheduler, read 109.85 words each; 154.85 when each attempt built a
   five-function closure group and every Begin, Try_commit and
   Abort_call event boxed a tuple of its columns.  The bound leaves
   about five words of margin, under the 16 a tuple per Begin and
   Try_commit event would add.  Read with [Gc.minor_words], as above. *)
let test_txn_allocation () =
  let n = 10_000 in
  let mem = Memory.create () in
  let recorder = Recorder.create () in
  let x = Item.v "x" and y = Item.v "y" in
  let handle =
    Txn_api.instantiate (Registry.find_exn "pram-local") mem recorder
      ~items:[ x; y ]
  in
  let attempt i =
    let txn = handle.Txn_api.begin_txn ~pid:1 ~tid:(Tid.v i) in
    ignore (Txn_api.read txn x);
    ignore (Txn_api.read txn y);
    ignore (Txn_api.write txn x (Value.int i));
    ignore (Txn_api.write txn y (Value.int i));
    ignore (Txn_api.try_commit txn)
  in
  (* the first attempt fills pram-local's store; it is not measured *)
  attempt 0;
  let a0 = Gc.minor_words () in
  for i = 1 to n do
    attempt i
  done;
  let per_attempt = (Gc.minor_words () -. a0) /. float_of_int n in
  if per_attempt > 115.0 then
    Alcotest.failf "an attempt allocated %.2f words (bound 115)" per_attempt;
  Alcotest.(check int) "twelve events an attempt" (12 * (n + 1))
    (Recorder.length recorder)

(* A status record's name costs no formatting: dstm names the status
   object of every attempt [st:T<n>], and once that name went through
   [Fmt] a [begin_txn] allocated 394.42 words, 287 of them for
   [Tid.name].  Concatenated, a [begin_txn] reads 38.42 and [Tid.name]
   five. *)
let test_status_name_allocation () =
  let n = 10_000 in
  let mem = Memory.create () in
  let recorder = Recorder.create () in
  let handle =
    Txn_api.instantiate (Registry.find_exn "dstm") mem recorder
      ~items:[ Item.v "x" ]
  in
  ignore (handle.Txn_api.begin_txn ~pid:1 ~tid:(Tid.v 0));
  let a0 = Gc.minor_words () in
  for i = 1 to n do
    ignore (handle.Txn_api.begin_txn ~pid:1 ~tid:(Tid.v i))
  done;
  let per_begin = (Gc.minor_words () -. a0) /. float_of_int n in
  let a0 = Gc.minor_words () in
  for i = 1 to n do
    ignore (Tid.name (Tid.v (1_000_000 + i)))
  done;
  let per_name = (Gc.minor_words () -. a0) /. float_of_int n in
  if per_begin > 48.0 then
    Alcotest.failf "a dstm begin_txn allocated %.2f words (bound 48)"
      per_begin;
  if per_name > 8.0 then
    Alcotest.failf "Tid.name allocated %.2f words (bound 8)" per_name;
  Alcotest.(check (option int)) "the last status object" (Some (n + 1))
    (Memory.find mem ("st:" ^ Tid.name (Tid.v n)))

(* [Tid.name] is the string the formatter prints: the old [Fmt]
   rendering is the oracle *)
let tid_name_law =
  QCheck.Test.make ~name:"Tid.name renders as pp_name" ~count:500
    QCheck.(oneof [ small_nat; int_range 0 max_int ])
    (fun t -> Tid.name (Tid.v t) = Fmt.str "%a" Tid.pp_name (Tid.v t))

(* lazy handles leave the telemetry as it was: a repeated sweep after a
   reset reproduces every counter and histogram count, and no cell is
   registered before it first counts — the CI explore smoke greps the
   si-clock report for the absence of explorer_truncated_total *)
let test_sweep_telemetry () =
  let sink = Sink.default in
  let m = Sink.metrics sink in
  let sweep () =
    Sink.reset sink;
    ignore (Explore_sweep.run ~por:true (Registry.find_exn "si-clock"));
    List.filter_map
      (fun (s : Metrics.sample) ->
        match s.Metrics.value with
        | Metrics.VCounter n -> Some (s.Metrics.name, s.Metrics.labels, n)
        | Metrics.VHistogram h ->
            Some (s.Metrics.name, s.Metrics.labels, h.Metrics.count))
      (Metrics.snapshot m)
  in
  let absent_until_counted () =
    Alcotest.(check bool) "no explorer_truncated_total" true
      (Metrics.find m "explorer_truncated_total" = None);
    Alcotest.(check bool) "no sched_crash_total" true
      (Metrics.find m "sched_crash_total" = None);
    List.iter
      (fun (c : Spec.checker) ->
        let labels = [ ("checker", c.Spec.name) ] in
        let counted =
          List.fold_left
            (fun counted v ->
              let verdict = Spec.verdict_to_string v in
              match
                Metrics.find m
                  ~labels:(("verdict", verdict) :: labels)
                  "checker_verdict_total"
              with
              | None -> counted
              | Some (Metrics.VCounter n) ->
                  Alcotest.(check bool)
                    (c.Spec.name ^ " " ^ verdict ^ " registered only once counted")
                    true (n > 0);
                  counted + n
              | Some _ -> Alcotest.fail "checker_verdict_total is a counter")
            0
            [ Spec.Sat; Spec.Unsat; Spec.Out_of_budget ]
        in
        Alcotest.(check bool)
          (c.Spec.name ^ " never out of budget")
          true
          (Metrics.find m
             ~labels:(("verdict", "out-of-budget") :: labels)
             "checker_verdict_total"
          = None);
        Alcotest.(check bool)
          (c.Spec.name ^ " wall histogram iff a decision counted")
          (counted > 0)
          (Metrics.find m ~labels "checker_wall_ns" <> None))
      Checkers.all
  in
  let first = sweep () in
  absent_until_counted ();
  let second = sweep () in
  absent_until_counted ();
  Alcotest.(check int) "same cells" (List.length first) (List.length second);
  List.iter2
    (fun (n1, l1, v1) (n2, l2, v2) ->
      Alcotest.(check (pair string int))
        (n1 ^ " value/count")
        (n1, v1) (n2, v2);
      Alcotest.(check bool) (n1 ^ " labels") true (l1 = l2))
    first second;
  Sink.reset sink

(* the human-readable table surfaces histogram quantiles: `report'
   renders latency distributions through this printer, so the p50/p95/
   p99 columns are part of its contract *)
let test_pp_table_quantiles () =
  let sink = Sink.create () in
  let m = Sink.metrics sink in
  let h = Metrics.histogram m "latency_ns" in
  List.iter (fun v -> Metrics.observe h (float_of_int v)) [ 1; 5; 9 ];
  let out = Fmt.str "%a" Sink.pp_table sink in
  List.iter
    (fun needle ->
      let ok =
        let n = String.length needle and l = String.length out in
        let rec mem i =
          i + n <= l && (String.sub out i n = needle || mem (i + 1))
        in
        mem 0
      in
      Alcotest.(check bool) (needle ^ " in table") true ok)
    [ "latency_ns"; "p50="; "p95="; "p99=" ]

let () =
  Alcotest.run "obs"
    [
      ( "metrics",
        [
          Alcotest.test_case "counter aggregation" `Quick
            test_counter_aggregation;
          Alcotest.test_case "histogram stats" `Quick test_histogram_stats;
          QCheck_alcotest.to_alcotest quantile_law;
          Alcotest.test_case "quantiles over cap" `Quick
            test_quantiles_over_cap;
        ] );
      ( "span",
        [
          Alcotest.test_case "nesting" `Quick test_span_nesting;
          Alcotest.test_case "cap" `Quick test_span_cap;
        ] );
      ( "sink",
        [
          Alcotest.test_case "jsonl round-trip" `Quick test_jsonl_roundtrip;
          Alcotest.test_case "table quantiles" `Quick
            test_pp_table_quantiles;
        ] );
      ( "sim",
        [
          Alcotest.test_case "replay counters" `Quick test_replay_counters;
          Alcotest.test_case "cursor steps attributed to pids" `Quick
            test_cursor_pid_steps;
          Alcotest.test_case "bulk append allocates per chunk" `Quick
            test_bulk_append_allocation;
          Alcotest.test_case "a one-step run allocates as a step" `Quick
            test_run_steps_allocation;
          Alcotest.test_case "a step allocates only its continuation" `Quick
            test_step_allocation;
          Alcotest.test_case "a transaction allocates only what it keeps"
            `Quick test_txn_allocation;
          Alcotest.test_case "a status record's name costs no formatting"
            `Quick test_status_name_allocation;
          QCheck_alcotest.to_alcotest tid_name_law;
          Alcotest.test_case "sweep telemetry under lazy handles" `Quick
            test_sweep_telemetry;
        ] );
    ]

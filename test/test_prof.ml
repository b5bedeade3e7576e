(* The soak observatory's instruments: phase-profile aggregation (the
   call-forest rebuild and its merge law), the collapsed-stack and
   Chrome exports, watch tick-rate determinism, GC metering shape, the
   runtime tick hooks the soak rides on, and the segmented soak driver
   itself (completion, stall, determinism). *)

open Core

(* ------------------------------------------------------------------ *)
(* a deterministic tracer: constant wall clock, manual step counter *)

let fake_tracer () =
  let step = ref 0 in
  let tr = Span.create ~clock:(fun () -> 0.0) ~steps:(fun () -> !step) () in
  (tr, step)

(* the reference workload:
     run
       setup        (2 steps)
       drive        (commit: 3 steps, then 1 step of its own)
       drive        (commit: 3 steps, then 2 steps of its own)   *)
let drive_reference tr step =
  Span.with_ tr "run" (fun () ->
      Span.with_ tr "setup" (fun () -> step := !step + 2);
      Span.with_ tr "drive" (fun () ->
          Span.with_ tr "commit" (fun () -> step := !step + 3);
          step := !step + 1);
      Span.with_ tr "drive" (fun () ->
          Span.with_ tr "commit" (fun () -> step := !step + 3);
          step := !step + 2))

let test_golden_collapsed () =
  let tr, step = fake_tracer () in
  drive_reference tr step;
  let prof = Prof.of_spans (Span.spans tr) in
  (* self-steps: run = 11 - (2+4+5) = 0; drive = (4-3) + (5-3) = 3;
     commit = 3 + 3 = 6; setup = 2.  Lines sort lexicographically and
     sum to the 11 steps of the whole run. *)
  Alcotest.(check string)
    "collapsed stacks (self steps)"
    "run 0\nrun;drive 3\nrun;drive;commit 6\nrun;setup 2\n"
    (Prof.to_collapsed ~metric:Prof.Steps prof);
  Alcotest.(check string)
    "collapsed stacks (calls)"
    "run 1\nrun;drive 2\nrun;drive;commit 2\nrun;setup 1\n"
    (Prof.to_collapsed ~metric:Prof.Calls prof);
  (* the node table agrees: totals are inclusive *)
  let find p =
    match List.find_opt (fun n -> n.Prof.path = p) (Prof.nodes prof) with
    | Some n -> n
    | None -> Alcotest.failf "no node %s" (String.concat ";" p)
  in
  let drive = find [ "run"; "drive" ] in
  Alcotest.(check int) "drive calls" 2 drive.Prof.count;
  Alcotest.(check int) "drive total steps" 9 drive.Prof.total_steps;
  Alcotest.(check int) "drive self steps" 3 drive.Prof.self_steps;
  Alcotest.(check int) "run total steps" 11 (find [ "run" ]).Prof.total_steps

let test_chrome_export () =
  let tr, step = fake_tracer () in
  drive_reference tr step;
  let spans = Span.spans tr in
  (match Prof.spans_to_chrome spans with
  | Obs_json.Obj [ ("traceEvents", Obs_json.List evs); _ ] ->
      Alcotest.(check int) "one event per span" (List.length spans)
        (List.length evs)
  | _ -> Alcotest.fail "unexpected chrome trace shape");
  let s = Obs_json.to_string (Prof.spans_to_chrome spans) in
  let contains needle =
    let n = String.length needle and l = String.length s in
    let rec mem i = i + n <= l && (String.sub s i n = needle || mem (i + 1)) in
    mem 0
  in
  Alcotest.(check bool) "complete events" true (contains "\"ph\":\"X\"");
  Alcotest.(check bool) "step timestamps" true (contains "\"ts\":")

(* ------------------------------------------------------------------ *)
(* the merge law, property-checked: profiling the concatenation of two
   completed forests equals merging their separate profiles *)

type shape = Node of string * shape list

let rec exec tr step (Node (name, kids)) =
  Span.with_ tr name (fun () ->
      incr step;
      List.iter (exec tr step) kids)

let shape_gen =
  let open QCheck.Gen in
  let name = oneofl [ "a"; "b"; "c" ] in
  sized_size (int_bound 8) @@ fix (fun self n ->
      if n = 0 then map (fun nm -> Node (nm, [])) name
      else
        map2
          (fun nm kids -> Node (nm, kids))
          name
          (list_size (int_bound 3) (self (n / 3))))

let forest_arb =
  QCheck.make
    ~print:(fun f ->
      let rec pp (Node (n, ks)) =
        n ^ if ks = [] then "" else "(" ^ String.concat "," (List.map pp ks) ^ ")"
      in
      String.concat " " (List.map pp f))
    QCheck.Gen.(list_size (int_bound 4) shape_gen)

let spans_of_forest f =
  let tr, step = fake_tracer () in
  List.iter (exec tr step) f;
  Span.spans tr

let merge_law =
  QCheck.Test.make ~name:"prof merge = profile of concatenation" ~count:200
    (QCheck.pair forest_arb forest_arb)
    (fun (fa, fb) ->
      let a = spans_of_forest fa and b = spans_of_forest fb in
      let merged = Prof.merge (Prof.of_spans a) (Prof.of_spans b) in
      let concat = Prof.of_spans (a @ b) in
      Prof.to_collapsed ~metric:Prof.Steps merged
      = Prof.to_collapsed ~metric:Prof.Steps concat
      && Prof.to_collapsed ~metric:Prof.Calls merged
         = Prof.to_collapsed ~metric:Prof.Calls concat
      (* and incremental folding (the soak's path) agrees too *)
      &&
      let inc = Prof.create () in
      Prof.add_spans inc a;
      Prof.add_spans inc b;
      Prof.to_collapsed ~metric:Prof.Calls inc
      = Prof.to_collapsed ~metric:Prof.Calls concat)

(* ------------------------------------------------------------------ *)
(* watch: snapshot cadence is a pure function of the tick count *)

let test_watch_tick_rate () =
  let out = open_out "/dev/null" in
  let run () =
    let w = Watch.create ~out ~every:10 ~label:"soak:test" [] in
    for _ = 1 to 95 do
      Watch.tick w
    done;
    let mid = Watch.emitted w in
    Watch.finish w;
    (mid, Watch.emitted w)
  in
  let a = run () and b = run () in
  close_out out;
  Alcotest.(check (pair int int)) "95 ticks at every=10" (9, 10) a;
  Alcotest.(check (pair int int)) "same cadence on re-run" a b

(* ------------------------------------------------------------------ *)
(* gcstat: sample retention and the perf record's shape *)

let test_gcstat () =
  let g = Gcstat.create ~cap:2 () in
  ignore (Sys.opaque_identity (Array.make 4096 0));
  let s1 = Gcstat.sample g ~tick:1 ~steps:100 ~txns:10 in
  ignore (Gcstat.sample g ~tick:2 ~steps:200 ~txns:20);
  ignore (Gcstat.sample g ~tick:3 ~steps:300 ~txns:30);
  Alcotest.(check bool) "allocation observed" true (s1.Gcstat.alloc_words > 0.);
  (* the cap keeps the oldest samples; later ones still measure *)
  (match Gcstat.samples g with
  | [ a; b ] ->
      Alcotest.(check int) "first tick" 1 a.Gcstat.tick;
      Alcotest.(check int) "second tick" 2 b.Gcstat.tick;
      Alcotest.(check bool) "cumulative alloc" true
        (b.Gcstat.alloc_words >= a.Gcstat.alloc_words)
  | ss -> Alcotest.failf "expected 2 retained samples, got %d" (List.length ss));
  match Gcstat.report g ~wall_ns:1_000_000 ~steps:100 ~txns:10 with
  | Obs_json.Obj
      (("schema", Obs_json.Int 1)
      :: ("type", Obs_json.String "perf")
      :: ("wall_ns", Obs_json.Int 1_000_000)
      :: ("steps", Obs_json.Int 100)
      :: ("txns", Obs_json.Int 10)
      :: rest) ->
      Alcotest.(check bool) "per-step rates present" true
        (List.mem_assoc "ns_per_step" rest
        && List.mem_assoc "words_per_step" rest
        && List.mem_assoc "samples" rest)
  | j ->
      Alcotest.failf "perf record shape: %s" (Obs_json.to_string j)

(* ------------------------------------------------------------------ *)
(* runtime tick hooks: deterministic step-count boundaries *)

let counter_setup steps1 steps2 : Sim.setup =
 fun mem _recorder ->
  let o1 = Memory.alloc mem ~name:"c1" (Value.int 0) in
  let o2 = Memory.alloc mem ~name:"c2" (Value.int 0) in
  [
    (1, fun () -> for _ = 1 to steps1 do ignore (Proc.fetch_add o1 1) done);
    (2, fun () -> for _ = 1 to steps2 do ignore (Proc.fetch_add o2 1) done);
  ]

let test_sim_tick_hook () =
  let run () =
    let ticks = ref [] in
    let c = Sim.start (counter_setup 5 3) in
    Sim.on_tick c (fun n -> ticks := n :: !ticks);
    let progressed = ref true in
    while !progressed do
      progressed := false;
      List.iter
        (fun pid -> if Sim.step c pid then progressed := true)
        [ 1; 2 ]
    done;
    (List.rev !ticks, Sim.steps_taken c)
  in
  let ticks, total = run () in
  Alcotest.(check int) "all steps executed" 8 total;
  (* one tick per single-step atom, cumulative and strictly increasing *)
  Alcotest.(check (list int)) "tick boundaries"
    [ 1; 2; 3; 4; 5; 6; 7; 8 ] ticks;
  let ticks2, _ = run () in
  Alcotest.(check (list int)) "deterministic on re-run" ticks ticks2

let test_schedule_session_steps () =
  let r =
    Sim.replay (counter_setup 5 3)
      [ Schedule.Steps (1, 2); Schedule.Until_done 2; Schedule.Until_done 1 ]
  in
  (* session accounting agrees with the log the replay produced *)
  Alcotest.(check int) "log length" 8
    (Access_log.length (Memory.log r.Sim.mem))

(* ------------------------------------------------------------------ *)
(* the soak driver: completion, determinism, stall attribution *)

let soak_cfg =
  {
    Soak.default with
    Soak.txns = 40;
    n_procs = 2;
    seed = 42;
    segment_txns = 5;
    budget = 50_000;
    tick_steps = 50;
  }

let test_soak_completes () =
  let impl = Registry.find_exn "tl2-clock" in
  let ticks = ref 0 in
  let o = Soak.run ~on_tick:(fun _ -> incr ticks) impl soak_cfg in
  Alcotest.(check bool) "reached the target" true
    (o.Soak.progress.Soak.txns_done >= soak_cfg.Soak.txns);
  Alcotest.(check (option (of_pp Fmt.nop))) "no stall" None o.Soak.stall;
  Alcotest.(check bool) "segments ran" true (o.Soak.progress.Soak.segments > 0);
  Alcotest.(check bool) "ticks fired" true (!ticks > 0);
  (* fixed config, fixed outcome — the soak line's determinism *)
  let o2 = Soak.run impl soak_cfg in
  Alcotest.(check bool) "deterministic outcome" true
    (o.Soak.progress = o2.Soak.progress)

let test_soak_stall () =
  let impl = Registry.find_exn "tl-lock" in
  let o = Soak.run impl { soak_cfg with Soak.budget = 20 } in
  match o.Soak.stall with
  | None -> Alcotest.fail "starved budget must wedge"
  | Some s ->
      Alcotest.(check bool) "wedged pid named" true (s.Soak.pid >= 1);
      Alcotest.(check bool) "short of the target" true
        (o.Soak.progress.Soak.txns_done < soak_cfg.Soak.txns)

let () =
  Alcotest.run "prof"
    [
      ( "prof",
        [
          Alcotest.test_case "golden collapsed stack" `Quick
            test_golden_collapsed;
          Alcotest.test_case "chrome export" `Quick test_chrome_export;
          QCheck_alcotest.to_alcotest merge_law;
        ] );
      ( "watch",
        [ Alcotest.test_case "tick rate" `Quick test_watch_tick_rate ] );
      ( "gcstat", [ Alcotest.test_case "samples and report" `Quick test_gcstat ] );
      ( "ticks",
        [
          Alcotest.test_case "sim tick hook" `Quick test_sim_tick_hook;
          Alcotest.test_case "session step accounting" `Quick
            test_schedule_session_steps;
        ] );
      ( "soak",
        [
          Alcotest.test_case "completes deterministically" `Quick
            test_soak_completes;
          Alcotest.test_case "stalls under a starved budget" `Quick
            test_soak_stall;
        ] );
    ]

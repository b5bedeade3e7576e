(* pclsan: vector-clock laws (qcheck), happens-before sanity on recorded
   executions, one positive and one negative trace per lint pass, the
   anomaly-catalogue cross-check, registry lookup, and the golden Figure-2
   lint JSONL snapshot. *)

open Core

let oid_name o = "oid" ^ string_of_int (Oid.to_int o)

(* a lint input from a bare history (the anomaly passes are history-level) *)
let input_of_history h =
  {
    Lint.log = Access_log.whole (Access_log.create ());
    history = h;
    name_of = oid_name;
    data_sets = None;
    tm = None;
    meta = [];
  }

(* a lint input from a recorded construction run *)
let input_of_run ?tm impl atoms =
  let _, fl = Pcl_figures.record_run impl atoms in
  { (Lint.input_of_flight fl) with Lint.data_sets = Some Pcl_txns.data_sets;
    tm }

let fired passes input =
  List.sort_uniq compare
    (List.map
       (fun (f : Lint.finding) -> f.Lint.pass)
       (Lints.run_passes passes input).Lints.findings)

let construction impl =
  match Pcl_constructions.build impl with
  | Ok c -> c
  | Error _ -> Alcotest.fail "construction unexpectedly failed"

(* ------------------------------------------------------------------ *)
(* vector-clock laws *)

let gen_vclock : Vclock.t QCheck.Gen.t =
  let open QCheck.Gen in
  map Vclock.of_list
    (list_size (int_bound 6)
       (pair (int_bound 5) (int_bound 20)))

let arb_vclock = QCheck.make ~print:(Fmt.to_to_string Vclock.pp) gen_vclock

let qtest name count law = QCheck.Test.make ~name ~count law

let vclock_laws =
  List.map QCheck_alcotest.to_alcotest
    [
      qtest "leq reflexive" 200 (QCheck.make gen_vclock)
        (fun a -> Vclock.leq a a);
      qtest "leq antisymmetric" 500
        (QCheck.pair arb_vclock arb_vclock)
        (fun (a, b) ->
          (not (Vclock.leq a b && Vclock.leq b a)) || Vclock.equal a b);
      qtest "leq transitive" 500
        (QCheck.triple arb_vclock arb_vclock arb_vclock)
        (fun (a, b, c) ->
          (not (Vclock.leq a b && Vclock.leq b c)) || Vclock.leq a c);
      qtest "join is an upper bound" 500
        (QCheck.pair arb_vclock arb_vclock)
        (fun (a, b) ->
          Vclock.leq a (Vclock.join a b) && Vclock.leq b (Vclock.join a b));
      qtest "join is the least upper bound" 500
        (QCheck.triple arb_vclock arb_vclock arb_vclock)
        (fun (a, b, c) ->
          (not (Vclock.leq a c && Vclock.leq b c))
          || Vclock.leq (Vclock.join a b) c);
      qtest "join commutative" 500
        (QCheck.pair arb_vclock arb_vclock)
        (fun (a, b) -> Vclock.equal (Vclock.join a b) (Vclock.join b a));
      qtest "join associative" 500
        (QCheck.triple arb_vclock arb_vclock arb_vclock)
        (fun (a, b, c) ->
          Vclock.equal
            (Vclock.join a (Vclock.join b c))
            (Vclock.join (Vclock.join a b) c));
      qtest "join idempotent" 200 arb_vclock
        (fun a -> Vclock.equal (Vclock.join a a) a);
      qtest "tick strictly increases" 200
        (QCheck.pair arb_vclock (QCheck.int_bound 5))
        (fun (a, p) -> Vclock.lt a (Vclock.tick a p));
      qtest "concurrent iff incomparable" 500
        (QCheck.pair arb_vclock arb_vclock)
        (fun (a, b) ->
          Vclock.concurrent a b
          = ((not (Vclock.leq a b)) && not (Vclock.leq b a)));
    ]

let test_vclock_canonical () =
  Alcotest.(check (list (pair int int)))
    "of_list drops zero components" [ (2, 3) ]
    (Vclock.to_list (Vclock.of_list [ (1, 0); (2, 3) ]));
  Alcotest.(check int)
    "get of missing component" 0
    (Vclock.get Vclock.empty 4);
  Alcotest.(check bool)
    "empty below everything" true
    (Vclock.leq Vclock.empty (Vclock.of_list [ (0, 1) ]))

(* ------------------------------------------------------------------ *)
(* happens-before on a recorded execution *)

let test_hb_order () =
  let input =
    input_of_run (Registry.find_exn "candidate")
      (Pcl_constructions.beta (construction (Registry.find_exn "candidate")))
  in
  let hb = Hb.analyse ~history:input.Lint.history input.Lint.log in
  let n = Hb.length hb in
  Alcotest.(check bool) "trace recorded" true (n > 0);
  for a = 0 to n - 1 do
    for b = 0 to n - 1 do
      if Hb.happens_before hb a b then begin
        if Hb.happens_before hb b a then
          Alcotest.failf "hb not antisymmetric: %d <-> %d" a b;
        (* hb is consistent with the interleaving order *)
        if a >= b then
          Alcotest.failf "hb against trace order: %d -> %d" a b
      end;
      (* program order: same-process steps are always ordered *)
      let w = input.Lint.log in
      let pa = Access_log.pid_at w.Access_log.log (w.pos + a)
      and pb = Access_log.pid_at w.log (w.pos + b) in
      if a < b && pa = pb && not (Hb.happens_before hb a b) then
        Alcotest.failf "program order lost: %d -> %d of p%d" a b pa
    done
  done;
  (* transitivity *)
  for a = 0 to n - 1 do
    for b = a + 1 to n - 1 do
      for c = b + 1 to n - 1 do
        if
          Hb.happens_before hb a b
          && Hb.happens_before hb b c
          && not (Hb.happens_before hb a c)
        then Alcotest.failf "hb not transitive: %d %d %d" a b c
      done
    done
  done

let test_hb_serial_total () =
  (* the serial execution delta1 is totally ordered by realtime order *)
  let input =
    input_of_run (Registry.find_exn "candidate") Pcl_constructions.delta1
  in
  let hb = Hb.analyse ~history:input.Lint.history input.Lint.log in
  let n = Hb.length hb in
  for a = 0 to n - 1 do
    for b = a + 1 to n - 1 do
      if Hb.concurrent_pos hb a b then
        Alcotest.failf "serial steps unordered: %d and %d" a b
    done
  done

(* ------------------------------------------------------------------ *)
(* one positive and one negative trace per pass *)

let beta_input name =
  let impl = Registry.find_exn name in
  input_of_run ~tm:name impl (Pcl_constructions.beta (construction impl))

let test_race_pos_neg () =
  let fires name = fired [ Lint_passes.race ] (beta_input name) in
  Alcotest.(check (list string))
    "candidate's unsynchronized cells race" [ "race" ] (fires "candidate");
  Alcotest.(check (list string))
    "llsc-candidate is race-free" [] (fires "llsc-candidate")

let test_strict_dap_pos_neg () =
  let fires name = fired [ Lint_passes.strict_dap ] (beta_input name) in
  Alcotest.(check (list string))
    "dstm's central status word breaks strict DAP" [ "strict-dap" ]
    (fires "dstm");
  Alcotest.(check (list string))
    "candidate is strictly DAP" [] (fires "candidate")

let test_of_stall_pos_neg () =
  (* positive: tl-lock's stall probe (writer paused mid-commit, reader
     solo past the horizon) must trip of-stall *)
  let obs = Figure_lint.observe (Registry.find_exn "tl-lock") in
  Alcotest.(check bool)
    "tl-lock stalls on the probe" true
    (List.mem "of-stall" obs.Figure_lint.stall);
  (* negative: the serial execution shows no stall *)
  Alcotest.(check (list string))
    "serial run never stalls" []
    (fired [ Lint_passes.of_stall ]
       (input_of_run ~tm:"tl-lock" (Registry.find_exn "tl-lock")
          Pcl_constructions.delta1))

(* anomaly passes, driven by the catalogue's [lints] field: each entry
   lists exactly the anomaly passes that must fire on its history, so
   every pass gets its positives and all other entries are its negatives *)
let test_anomaly_catalogue () =
  let anomaly_passes =
    [ Lint_passes.lost_update; Lint_passes.write_skew;
      Lint_passes.torn_snapshot ]
  in
  List.iter
    (fun (a : Anomalies.anomaly) ->
      Alcotest.(check (list string))
        a.Anomalies.name
        (List.sort_uniq compare a.Anomalies.lints)
        (fired anomaly_passes (input_of_history a.Anomalies.history)))
    Anomalies.catalogue

let test_serial_clean () =
  (* acceptance: zero findings of any trace pass on a serial execution *)
  List.iter
    (fun name ->
      Alcotest.(check (list string))
        (name ^ " serial execution is lint-clean") []
        (fired Lint_passes.trace_passes
           (input_of_run ~tm:name (Registry.find_exn name)
              Pcl_constructions.delta1)))
    [ "tl-lock"; "candidate"; "si-clock"; "llsc-candidate" ]

(* `fuzz -t norec --lint --record', seed 1, iteration 61: T3 writes
   y = 300 then y = 301 and commits; T1 then reads y = 301 and writes x.
   The read returns T3's final value, so it is no pre-state read of y,
   and T2 . T3 . T1 is a strict serialization *)
let test_write_skew_final_value () =
  let h =
    match
      Wire.parse
        "+b1@1 -ok1 +r1(y) +b2@2 -ok2 +r2(x) -v2=0 +w2(y)=200 -ok2 +c2 -C2 \
         +b3@3 -ok3 +r3(x) -v3=0 +w3(y)=300 -ok3 +w3(y)=301 -ok3 +c3 -C3 \
         -v1=301 +r1(y) -v1=301 +w1(z)=100 -ok1 +w1(x)=101 -ok1 +c1 -C1"
    with
    | Ok h -> h
    | Error msg -> Alcotest.fail msg
  in
  Alcotest.(check bool)
    "strictly serializable" true
    (Spec.sat ((Checkers.find_exn "strict-serializability").Spec.check h));
  Alcotest.(check (list string))
    "no anomaly finding" []
    (fired [ Lint_passes.lost_update; Lint_passes.write_skew ]
       (input_of_history h))

(* a fuzz-style run, drawn the way `pcl_tm fuzz' draws one: three static
   transactions over x, y and z with unique write values, eight random
   step atoms, then every process to completion *)
let fuzz_case =
  QCheck.Gen.(
    let items = list_size (int_range 1 2) (int_bound 2) in
    triple
      (int_bound (List.length Registry.all - 1))
      (list_repeat 3 (pair items items))
      (list_repeat 8 (pair (int_range 1 3) (int_range 1 5))))

let fuzz_run (tm, txns, steps) =
  let impl = List.nth Registry.all tm in
  let item i = List.nth [ Item.v "x"; Item.v "y"; Item.v "z" ] i in
  let specs =
    List.mapi
      (fun i (reads, writes) ->
        let tid = i + 1 in
        {
          Static_txn.tid = Tid.v tid;
          pid = tid;
          reads = List.map item reads;
          writes =
            List.mapi (fun j x -> (item x, Value.int ((100 * tid) + j))) writes;
        })
      txns
  in
  let schedule =
    List.map (fun (pid, k) -> Schedule.Steps (pid, k)) steps
    @ [ Schedule.Until_done 1; Schedule.Until_done 2; Schedule.Until_done 3 ]
  in
  let outcomes = Hashtbl.create 8 in
  let setup mem recorder =
    let handle =
      Txn_api.instantiate impl mem recorder ~items:(Static_txn.items_of specs)
    in
    List.map
      (fun s -> (s.Static_txn.pid, Static_txn.program handle s ~outcomes))
      specs
  in
  (impl, Sim.replay ~budget:3_000 setup schedule)

let fuzz_history case =
  let impl, r = fuzz_run case in
  (impl, r.Sim.history)

(* lost-update and write-skew name histories no serialization explains,
   so a strictly serializable run must give neither *)
let anomaly_laws =
  List.map QCheck_alcotest.to_alcotest
    [
      qtest "strictly serializable runs: no lost-update or write-skew" 3000
        (QCheck.make
           ~print:(fun case ->
             let impl, h = fuzz_history case in
             Registry.name impl ^ ": " ^ Wire.print h)
           fuzz_case)
        (fun case ->
          let _, h = fuzz_history case in
          (not
             (Spec.sat
                ((Checkers.find_exn "strict-serializability").Spec.check
                   ~budget:400_000 h)))
          || fired
               [ Lint_passes.lost_update; Lint_passes.write_skew ]
               (input_of_history h)
             = []);
    ]

(* ------------------------------------------------------------------ *)
(* the progress-guarantee passes *)

let progressiveness_fires h =
  fired [ Progress_lint.progressiveness ] (input_of_history h)

let test_progressiveness_pos_neg () =
  let open Build in
  (* positive: a solo transaction forcibly aborted at commit — there is
     no concurrent transaction to attribute the conflict to *)
  Alcotest.(check (list string))
    "unattributable forced abort trips the pass" [ "progressiveness" ]
    (progressiveness_fires (Build.history [ B (1, 1); R (1, "x", 0); Ca 1 ]));
  (* negative: the same abort with a concurrent conflicting writer is
     the TM exercising its progressive right *)
  Alcotest.(check (list string))
    "attributable abort is clean" []
    (progressiveness_fires
       (Build.history
          [ B (1, 1); B (2, 2); R (1, "x", 0); W (2, "x", 2); Ca 1; C 2 ]));
  (* negative: a client-requested abort is never the TM's fault *)
  Alcotest.(check (list string))
    "client abort is clean" []
    (progressiveness_fires (Build.history [ B (1, 1); R (1, "x", 0); A 1 ]))

(* a live workload run, recorded the way `pcl_tm lint' records it *)
let workload_input name =
  let impl = Registry.find_exn name in
  let fl = Flight.create () in
  Flight.with_recorder fl (fun () ->
      ignore
        (Workload.run impl
           {
             Workload.default with
             Workload.conflict_pct = 50;
             txns_per_proc = 10;
           }));
  { (Lint.input_of_flight fl) with Lint.tm = Some name }

let test_progressiveness_new_tms_clean () =
  (* the two new corners hold the guarantee they claim: every forced
     abort in a live contended run is attributable *)
  List.iter
    (fun name ->
      Alcotest.(check (list string))
        (name ^ " pays no progressiveness tax")
        []
        (fired [ Progress_lint.progressiveness ] (workload_input name)))
    [ "lp-progressive"; "pwf-readers" ]

let test_progressiveness_stall () =
  (* arm 2 positive: pause tl-lock's writer mid-commit and let the
     reader run solo for three horizons — it spins step-contention-free
     on the global lock without ever committing *)
  let impl = Registry.find_exn "tl-lock" in
  let solo = 3 * Lint.default.Lint.horizon in
  let rec scan k =
    if k > 40 (* Figure_lint's max_pause_depth *) then []
    else
      match
        fired
          [ Progress_lint.progressiveness ]
          (input_of_run ~tm:"tl-lock" impl
             [ Schedule.Steps (1, k); Schedule.Steps (3, solo) ])
      with
      | [] -> scan (k + 1)
      | fs -> fs
  in
  Alcotest.(check (list string))
    "a paused lock holder breaks tl-lock's commit obligation"
    [ "progressiveness" ] (scan 1)

let test_pwf_reader_scan () =
  let scan name =
    Progress_lint.reader_scan Lint.default (Registry.find_exn name)
  in
  (match scan "tl-lock" with
  | Progress_lint.Reader_stalls _ -> ()
  | _ -> Alcotest.fail "tl-lock must block the reader on a suspended writer");
  (match scan "lp-progressive" with
  | Progress_lint.Reader_aborts k when k > 0 -> ()
  | _ ->
      Alcotest.fail
        "lp-progressive must abort the reader over a suspended writer's \
         lock");
  List.iter
    (fun name ->
      match scan name with
      | Progress_lint.Reader_wait_free -> ()
      | _ -> Alcotest.failf "%s readers should pass the branch scan" name)
    [ "pwf-readers"; "si-clock"; "pram-local" ];
  Alcotest.(check int)
    "pwf-readers: no read-only aborts under fair contention" 0
    (Progress_lint.reader_aborts_under_contention
       (Registry.find_exn "pwf-readers"))

let test_pram_wait_free_but_inconsistent () =
  (* pram-local sits at the opposite corner of pwf-readers: its readers
     are wait-free (the pwf pass reports only the Info classification)
     while the expected-findings table charges it the full anomaly tax *)
  let input =
    { (input_of_history (History.of_list [])) with Lint.tm = Some "pram-local" }
  in
  (match (Lints.run_passes [ Progress_lint.pwf ] input).Lints.findings with
  | [ f ] ->
      Alcotest.(check bool) "only an Info finding" true
        (f.Lint.severity = Lint.Info);
      Alcotest.(check string) "classification pinned"
        "partial-wait-freedom classification for pram-local: read-only \
         wait-free, updaters wait-free"
        f.Lint.message
  | _ -> Alcotest.fail "expected exactly the Info classification");
  Alcotest.(check (list string))
    "pram-local's tax is consistency, not liveness"
    [ "lost-update"; "race"; "torn-snapshot"; "write-skew" ]
    (List.sort compare (Lints.expected_for (Some "pram-local")))

(* the qcheck law: the progressiveness verdict over a TM's bounded
   interleaving space does not depend on the exploration order — sleep-set
   DPOR and the naive DFS agree on the set of finding messages *)
let progressiveness_verdicts ~por impl =
  let acc = ref [] in
  let on_execution ~strongest:_ (r : Sim.result) =
    let input =
      {
        Lint.log = Access_log.whole (Memory.log r.Sim.mem);
        history = r.Sim.history;
        name_of = Memory.name_of r.Sim.mem;
        data_sets = Some Explore_sweep.data_sets;
        tm = Some (Registry.name impl);
        meta = [];
      }
    in
    acc :=
      List.map
        (fun (f : Lint.finding) -> f.Lint.message)
        (Lints.run_passes [ Progress_lint.progressiveness ] input)
          .Lints.findings
      @ !acc
  in
  ignore (Explore_sweep.run ~por ~on_execution impl);
  List.sort_uniq compare !acc

let progress_laws =
  List.map QCheck_alcotest.to_alcotest
    [
      qtest "progressiveness verdicts invariant under DPOR" 10
        (QCheck.make
           ~print:(fun i -> Registry.name (List.nth Registry.all i))
           (QCheck.Gen.int_bound (List.length Registry.all - 1)))
        (fun i ->
          let impl = List.nth Registry.all i in
          progressiveness_verdicts ~por:true impl
          = progressiveness_verdicts ~por:false impl);
    ]

(* the qcheck law: strict-dap, which compares only at a transaction's
   first and first non-trivial access to an object and stops at its
   finding cap, reports exactly the findings of Strict_dap_ref, which
   compares at every access and caps at the end; over live workload
   recordings of every TM *)
let dap_law_case =
  QCheck.Gen.(
    quad
      (int_bound (List.length Registry.all - 1))
      (int_bound 1_000_000) (int_bound 100) (int_range 1 12))

let dap_laws =
  let json fs =
    List.map (fun f -> Obs_json.to_string (Lint.finding_json f)) fs
  in
  List.map QCheck_alcotest.to_alcotest
    [
      qtest "strict-dap = the compare-every-access oracle" 80
        (QCheck.make
           ~print:(fun (tm, seed, pct, n) ->
             Printf.sprintf "%s seed=%d conflict_pct=%d txns_per_proc=%d"
               (Registry.name (List.nth Registry.all tm))
               seed pct n)
           dap_law_case)
        (fun (tm, seed, conflict_pct, txns_per_proc) ->
          let impl = List.nth Registry.all tm in
          let fl = Flight.create () in
          Flight.with_recorder fl (fun () ->
              ignore
                (Workload.run impl
                   { Workload.default with
                     Workload.seed; conflict_pct; txns_per_proc }));
          let input =
            { (Lint.input_of_flight fl) with
              Lint.tm = Some (Registry.name impl) }
          in
          (* the oracle finds every finding and then caps, so it runs
             once per connectivity *)
          List.for_all
            (fun dap_connectivity ->
              let cfg = { Lint.default with Lint.dap_connectivity } in
              let all =
                Strict_dap_ref.dap_run { cfg with Lint.max_findings = max_int }
                  input
              in
              List.for_all
                (fun max_findings ->
                  let cfg = { cfg with Lint.max_findings } in
                  json (Lint_passes.strict_dap.Lint.run cfg input)
                  = json (Strict_dap_ref.cap cfg all))
                [ 0; 1; 2; 16; max_int ])
            [ `Direct; `Path ]);
    ]

(* ------------------------------------------------------------------ *)
(* the figure-consistency pass *)

let test_figure_expectations () =
  (* positive: the recorded expectations hold for every registered TM,
     so the pass itself reports nothing *)
  List.iter
    (fun impl ->
      let (module M : Tm_intf.S) = impl in
      match Figure_lint.expected M.name with
      | None -> Alcotest.failf "no expectation recorded for %s" M.name
      | Some _ ->
          Alcotest.(check (list string))
            (M.name ^ " figure expectations hold") []
            (fired [ Figure_lint.pass ]
               { (input_of_history (History.of_list [])) with
                 Lint.tm = Some M.name }))
    [ Registry.find_exn "candidate"; Registry.find_exn "tl-lock";
      Registry.find_exn "pram-local" ]

let test_figure_observation_kinds () =
  (* the three corners of the triangle observed directly *)
  let obs name = Figure_lint.observe (Registry.find_exn name) in
  (match (obs "tl-lock").Figure_lint.outcome with
  | Figure_lint.Liveness_blocked _ -> ()
  | _ -> Alcotest.fail "tl-lock should block the construction");
  (match (obs "pram-local").Figure_lint.outcome with
  | Figure_lint.No_flip _ -> ()
  | _ -> Alcotest.fail "pram-local should never flip the reader");
  match (obs "candidate").Figure_lint.outcome with
  | Figure_lint.Built fires ->
      Alcotest.(check (list string))
        "candidate's beta races" [ "race" ] fires
  | _ -> Alcotest.fail "candidate's construction should build"

(* the observation judges the theorem, not the output settings: neither
   graph connectivity nor the finding cap changes what fires *)
let test_observation_ignores_output_settings () =
  List.iter
    (fun impl ->
      let default = Figure_lint.observe impl in
      List.iter
        (fun (what, config) ->
          Alcotest.(check bool)
            (Printf.sprintf "%s: %s observation = default" (Registry.name impl)
               what)
            true
            (Figure_lint.observe ~config impl = default))
        [
          ("path", { Lint.default with Lint.dap_connectivity = `Path });
          ("cap 0", { Lint.default with Lint.max_findings = 0 });
          ("cap max_int", { Lint.default with Lint.max_findings = max_int });
        ])
    Registry.all

(* the stall probe without its early stop: every pause depth 1..40 is
   replayed, and the first whose recording trips of-stall yields every
   trace pass that fires on it *)
let full_stall_scan impl =
  let solo = 3 * Lint.default.Lint.horizon in
  let rec scan k =
    if k > 40 (* Figure_lint's max_pause_depth *) then []
    else
      let i =
        input_of_run ~tm:(Registry.name impl) impl
          [ Schedule.Steps (1, k); Schedule.Steps (3, solo) ]
      in
      let fired =
        List.filter_map
          (fun (p : Lint.pass) ->
            if p.Lint.run Lint.default i <> [] then Some p.Lint.name else None)
          Lint_passes.trace_passes
      in
      if List.mem "of-stall" fired then fired else scan (k + 1)
  in
  scan 1

let test_stall_probe_early_stop () =
  List.iter
    (fun impl ->
      Alcotest.(check (list string))
        (Registry.name impl ^ ": early stop = full 1..40 scan")
        (full_stall_scan impl)
        (Figure_lint.observe impl).Figure_lint.stall)
    Registry.all

(* At horizons 8 and 16 the probe runs T1 more than a horizon of solo
   steps before suspending it, so of-stall fires on T1 itself while T3
   commits.  The stall probe judges T3: the obstruction-free TMs show no
   stall there (dstm at 8 does stall: its T3 needs more than 3 x 8 steps
   solo). *)
let test_stall_probe_small_horizons () =
  List.iter
    (fun (horizon, names) ->
      let config = { Lint.default with Lint.horizon } in
      List.iter
        (fun name ->
          Alcotest.(check (list string))
            (Printf.sprintf "%s at horizon %d: no stall" name horizon)
            []
            (Figure_lint.observe ~config (Registry.find_exn name))
              .Figure_lint.stall)
        names)
    [
      (8, [ "si-clock"; "candidate"; "llsc-candidate" ]);
      (16, [ "dstm"; "si-clock"; "candidate"; "llsc-candidate" ]);
    ]

(* the blocking TMs stall T3 at the same depth at every horizon *)
let test_stall_depths () =
  List.iter
    (fun horizon ->
      let config = { Lint.default with Lint.horizon } in
      List.iter
        (fun (name, k) ->
          let impl = Registry.find_exn name in
          let scan = Solo_probe.scan impl (Figure_lint.stall_probe config) in
          let first =
            Solo_probe.first_failure
              (Seq.take 40 (Solo_probe.points ~from:1 scan))
          in
          Alcotest.(check (option int))
            (Printf.sprintf "%s at horizon %d: stall depth" name horizon)
            (Some k)
            (Option.map (fun (p : Solo_probe.point) -> p.k) first);
          Alcotest.(check bool)
            (Printf.sprintf "%s at horizon %d: of-stall fires" name horizon)
            true
            (List.mem "of-stall"
               (Figure_lint.observe ~config impl).Figure_lint.stall))
        [
          ("tl-lock", 4); ("norec", 6); ("tl2-clock", 7); ("lp-progressive", 7);
        ])
    [ 8; 16; 128 ]

(* ------------------------------------------------------------------ *)
(* registry: lookup, prefixes, plug-ins, expected classification *)

let test_lookup () =
  (match Lints.lookup "torn-snapshot" with
  | Lints.Found p ->
      Alcotest.(check string) "exact" "torn-snapshot" p.Lint.name
  | _ -> Alcotest.fail "exact lookup failed");
  (match Lints.lookup "tor" with
  | Lints.Found p ->
      Alcotest.(check string) "prefix" "torn-snapshot" p.Lint.name
  | _ -> Alcotest.fail "prefix lookup failed");
  (match Lints.lookup "no-such-pass" with
  | Lints.Unknown -> ()
  | _ -> Alcotest.fail "unknown name should not resolve");
  match Lints.lookup "" with
  | Lints.Ambiguous names ->
      Alcotest.(check bool)
        "empty prefix matches everything" true
        (List.length names >= List.length Lints.builtin)
  | _ -> Alcotest.fail "empty prefix should be ambiguous"

let test_plugin_registration () =
  let dummy =
    {
      Lint.name = "test-dummy";
      describe = "plug-in used by the test suite";
      paper = "n/a";
      run = (fun _ _ -> []);
    }
  in
  Lint.register dummy;
  Alcotest.(check bool)
    "plug-in listed" true
    (List.exists
       (fun (p : Lint.pass) -> p.Lint.name = "test-dummy")
       (Lints.all ()));
  match Lints.lookup "test-dummy" with
  | Lints.Found p ->
      Alcotest.(check string) "plug-in resolvable" "test-dummy" p.Lint.name
  | _ -> Alcotest.fail "plug-in not resolvable"

let test_expected_classification () =
  let finding pass severity =
    {
      Lint.pass;
      severity;
      step = None;
      txns = [];
      oids = [];
      witness_steps = [];
      message = "x";
    }
  in
  Alcotest.(check bool)
    "strict-dap expected for tl2-clock" true
    (Lints.is_expected ~tm:(Some "tl2-clock")
       (finding "strict-dap" Lint.Error));
  Alcotest.(check bool)
    "strict-dap a surprise for candidate" false
    (Lints.is_expected ~tm:(Some "candidate")
       (finding "strict-dap" Lint.Error));
  Alcotest.(check bool)
    "unknown TM expects nothing" false
    (Lints.is_expected ~tm:None (finding "race" Lint.Warning));
  Alcotest.(check bool)
    "info findings always expected" true
    (Lints.is_expected ~tm:None (finding "race" Lint.Info))

(* ------------------------------------------------------------------ *)
(* golden lint JSONL for Figure 2 (beta' on the candidate TM) *)

let test_golden_fig2_jsonl () =
  let impl = Registry.find_exn "candidate" in
  let input =
    input_of_run ~tm:"candidate" impl
      (Pcl_constructions.beta' (construction impl))
  in
  let lines =
    List.map
      (fun f -> Obs_json.to_string (Lint.finding_json f))
      (Lints.run_passes Lint_passes.trace_passes input).Lints.findings
  in
  Alcotest.(check (list string))
    "figure 2 lint lines"
    [
      "{\"schema\":1,\"type\":\"finding\",\"pass\":\"race\",\"severity\":\"warning\",\"step\":11,\"txns\":[1,2],\"oids\":[0],\"witness_steps\":[5,11],\"message\":\"unordered conflicting accesses to cell:a: p1's cas (step 5) and p2's read (step 11) have no happens-before edge\"}";
      "{\"schema\":1,\"type\":\"finding\",\"pass\":\"race\",\"severity\":\"warning\",\"step\":15,\"txns\":[2,5],\"oids\":[2],\"witness_steps\":[14,15],\"message\":\"unordered conflicting accesses to cell:b2: p2's cas (step 14) and p5's read (step 15) have no happens-before edge\"}";
      "{\"schema\":1,\"type\":\"finding\",\"pass\":\"race\",\"severity\":\"warning\",\"step\":20,\"txns\":[2,5],\"oids\":[5],\"witness_steps\":[10,20],\"message\":\"unordered conflicting accesses to cell:b5: p2's read (step 10) and p5's cas (step 20) have no happens-before edge\"}";
      "{\"schema\":1,\"type\":\"finding\",\"pass\":\"race\",\"severity\":\"warning\",\"step\":36,\"txns\":[1,7],\"oids\":[0],\"witness_steps\":[5,36],\"message\":\"unordered conflicting accesses to cell:a: p1's cas (step 5) and p7's read (step 36) have no happens-before edge\"}";
      "{\"schema\":1,\"type\":\"finding\",\"pass\":\"race\",\"severity\":\"warning\",\"step\":36,\"txns\":[2,7],\"oids\":[0],\"witness_steps\":[12,36],\"message\":\"unordered conflicting accesses to cell:a: p2's cas (step 12) and p7's read (step 36) have no happens-before edge\"}";
      "{\"schema\":1,\"type\":\"finding\",\"pass\":\"race\",\"severity\":\"warning\",\"step\":43,\"txns\":[1,7],\"oids\":[7],\"witness_steps\":[2,43],\"message\":\"unordered conflicting accesses to cell:b7: p1's read (step 2) and p7's cas (step 43) have no happens-before edge\"}";
      "{\"schema\":1,\"type\":\"finding\",\"pass\":\"race\",\"severity\":\"warning\",\"step\":43,\"txns\":[2,7],\"oids\":[7],\"witness_steps\":[9,43],\"message\":\"unordered conflicting accesses to cell:b7: p2's read (step 9) and p7's cas (step 43) have no happens-before edge\"}";
    ]
    lines

(* ------------------------------------------------------------------ *)
(* the window law: every detector reads a recording through an
   [Access_log.window], and on any window of a fuzz run it answers
   exactly as on a fresh log that records the window's steps from
   position 0 under the same first global index.  A detector that took a
   log position for a global index would answer differently. *)

let window_answers h (w : Access_log.window) =
  let input = { (input_of_history h) with Lint.log = w } in
  let data_sets = Lint.effective_data_sets input in
  let hb = Hb.analyse ~history:h w in
  ( ( List.map
        (fun (s : Contention.access_summary) ->
          (s.tid, Oid.Map.bindings s.objects))
        (Contention.summarize w),
      Contention.all_contentions w,
      Strict_dap.violations ~data_sets w,
      Graph_dap.violations ~data_sets w,
      Obstruction_freedom.violations h w ),
    ( List.init (Hb.length hb) (fun k -> Vclock.to_list (Hb.clock hb k)),
      Cost.analyse ~history:h w,
      Option.map
        (fun (p : Provenance.t) -> p.Provenance.steps)
        (Provenance.of_unsat ~budget:100_000 ~log:w
           (Checkers.find_exn "opacity(final-state)")
           h),
      Timeline.render ~names:oid_name ~highlight:[ w.first ] h w,
      List.map
        (fun f -> Obs_json.to_string (Lint.finding_json f))
        (Lints.run_passes
           [
             Lint_passes.race;
             Lint_passes.strict_dap;
             Lint_passes.of_stall;
             Progress_lint.progressiveness;
           ]
           input)
          .Lints.findings ) )

let window_laws =
  List.map QCheck_alcotest.to_alcotest
    [
      qtest "a window answers as a fresh log of its steps" 300
        (QCheck.make
           ~print:(fun (case, (a, b, c)) ->
             let impl, h = fuzz_history case in
             Printf.sprintf "%s (%d, %d, %d): %s" (Registry.name impl) a b c
               (Wire.print h))
           QCheck.Gen.(pair fuzz_case (triple nat nat (int_bound 50))))
        (fun (case, (a, b, c)) ->
          let _, r = fuzz_run case in
          let log = Memory.log r.Sim.mem in
          let n = Access_log.length log in
          let pos = a mod (n + 1) in
          let len = b mod (n - pos + 1) in
          let w = Access_log.window log ~pos ~len ~first:(pos + c) in
          let fresh = Log_ref.record_all (Log_ref.entries w) in
          window_answers r.Sim.history w
          = window_answers r.Sim.history
              (Access_log.window fresh ~pos:0 ~len ~first:(pos + c)));
    ]

let () =
  Alcotest.run "analysis"
    [
      ("vclock-laws", vclock_laws);
      ( "vclock",
        [ Alcotest.test_case "canonical form" `Quick test_vclock_canonical ]
      );
      ( "hb",
        [
          Alcotest.test_case "partial order on beta" `Quick test_hb_order;
          Alcotest.test_case "serial runs totally ordered" `Quick
            test_hb_serial_total;
        ] );
      ( "passes",
        [
          Alcotest.test_case "race pos/neg" `Quick test_race_pos_neg;
          Alcotest.test_case "strict-dap pos/neg" `Quick
            test_strict_dap_pos_neg;
          Alcotest.test_case "of-stall pos/neg" `Quick test_of_stall_pos_neg;
          Alcotest.test_case "anomaly catalogue" `Quick
            test_anomaly_catalogue;
          Alcotest.test_case "serial executions clean" `Quick
            test_serial_clean;
          Alcotest.test_case "write-skew: a read of the final write" `Quick
            test_write_skew_final_value;
        ] );
      ("anomaly-laws", anomaly_laws);
      ( "progress",
        [
          Alcotest.test_case "progressiveness pos/neg" `Quick
            test_progressiveness_pos_neg;
          Alcotest.test_case "new TMs progressiveness-clean" `Quick
            test_progressiveness_new_tms_clean;
          Alcotest.test_case "stalled commit obligation" `Quick
            test_progressiveness_stall;
          Alcotest.test_case "pwf reader scan" `Quick test_pwf_reader_scan;
          Alcotest.test_case "pram-local wait-free but inconsistent" `Quick
            test_pram_wait_free_but_inconsistent;
        ] );
      ("progress-laws", progress_laws);
      ("dap-laws", dap_laws);
      ("window-laws", window_laws);
      ( "figure-consistency",
        [
          Alcotest.test_case "expectations hold" `Slow
            test_figure_expectations;
          Alcotest.test_case "observation kinds" `Quick
            test_figure_observation_kinds;
          Alcotest.test_case "stall probe early stop = full scan" `Quick
            test_stall_probe_early_stop;
          Alcotest.test_case "small horizons blame no obstruction-free TM"
            `Quick test_stall_probe_small_horizons;
          Alcotest.test_case "stall depths at every horizon" `Quick
            test_stall_depths;
          Alcotest.test_case "observation ignores output settings" `Quick
            test_observation_ignores_output_settings;
        ] );
      ( "registry",
        [
          Alcotest.test_case "lookup and prefixes" `Quick test_lookup;
          Alcotest.test_case "plug-in registration" `Quick
            test_plugin_registration;
          Alcotest.test_case "expected classification" `Quick
            test_expected_classification;
        ] );
      ( "golden",
        [
          Alcotest.test_case "figure-2 lint JSONL" `Quick
            test_golden_fig2_jsonl;
        ] );
    ]

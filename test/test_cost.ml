(* The cost observatory: RMR/RMW metering laws on hand-built logs, the
   golden per-TM cost rows (Figure 2 and the explore sweep), byte-level
   determinism of the JSONL artifact, the reason-code registry, the
   audit of the CLI's modules, the CLI's count ranges and the tables
   `report' drives. *)

open Core

(* ------------------------------------------------------------------ *)
(* hand-built logs: the RMR model on known access patterns *)

(* a hand-built log: each step [(pid, oid, prim, changed)] is
   attributed to the transaction numbered by its pid *)
let log_of steps =
  let log = Access_log.create () in
  List.iter
    (fun (pid, oid, prim, changed) ->
      Access_log.record log ~pid ~tid:(Some (Tid.v pid)) ~oid:(Oid.of_int oid)
        ~prim ~response:Value.unit ~changed)
    steps;
  Access_log.whole log

let write v = Primitive.Write (Value.int v)

(* p1 alone: first touch of each object is a cold-miss RMR; re-touching
   an object nobody wrote since is local *)
let solo_log =
  log_of
    [
      (1, 0, write 1, true);
      (1, 0, Primitive.Read, false);
      (1, 0, Primitive.Read, false);
      (1, 1, write 2, true);
    ]

(* same shape, but p2's writes to the object interleave: every re-read
   by p1 is now remote again *)
let contended_log =
  log_of
    [
      (1, 0, write 1, true);
      (2, 0, write 9, true);
      (1, 0, Primitive.Read, false);
      (2, 0, write 8, true);
      (1, 0, Primitive.Read, false);
      (1, 1, write 2, true);
    ]

let test_rmr_remote_writes_increase () =
  let solo = Cost.analyse solo_log in
  let contended = Cost.analyse contended_log in
  (* solo: p1 pays exactly its two cold misses *)
  Alcotest.(check int) "solo rmrs" 2 solo.Cost.rmrs;
  Alcotest.(check int) "solo steps" 4 solo.Cost.steps;
  (* contended: p1's cold misses plus one RMR per invalidated re-read,
     plus p2's own cold miss — strictly more than solo.  (p2's second
     write is local: only p1's trivial read intervened.) *)
  Alcotest.(check bool) "remote writes increase RMRs" true
    (contended.Cost.rmrs > solo.Cost.rmrs);
  Alcotest.(check int) "contended rmrs" 5 contended.Cost.rmrs;
  (* both of p1's re-reads follow a remote write *)
  Alcotest.(check int) "solo rarw" 0 solo.Cost.read_after_remote_write;
  Alcotest.(check int) "contended rarw" 2
    contended.Cost.read_after_remote_write

let test_rmw_class () =
  Alcotest.(check bool) "cas" true
    (Cost.rmw_class
       (Primitive.Cas { expected = Value.int 0; desired = Value.int 1 }));
  Alcotest.(check bool) "fetch-add" true
    (Cost.rmw_class (Primitive.Fetch_add 1));
  Alcotest.(check bool) "trylock" true
    (Cost.rmw_class (Primitive.Try_lock 1));
  Alcotest.(check bool) "sc" true
    (Cost.rmw_class (Primitive.Store_conditional (1, Value.int 1)));
  Alcotest.(check bool) "read" false (Cost.rmw_class Primitive.Read);
  Alcotest.(check bool) "write" false (Cost.rmw_class (write 1));
  Alcotest.(check bool) "unlock" false (Cost.rmw_class (Primitive.Unlock 1));
  Alcotest.(check bool) "ll" false
    (Cost.rmw_class (Primitive.Load_linked 1))

let test_merge_laws () =
  let a = Cost.analyse solo_log and b = Cost.analyse contended_log in
  let m = Cost.merge a b in
  Alcotest.(check int) "steps sum" (a.Cost.steps + b.Cost.steps)
    m.Cost.steps;
  Alcotest.(check int) "rmrs sum" (a.Cost.rmrs + b.Cost.rmrs) m.Cost.rmrs;
  Alcotest.(check int) "footprint max"
    (max a.Cost.footprint_max b.Cost.footprint_max)
    m.Cost.footprint_max;
  Alcotest.(check (list (of_pp Fmt.nop))) "merged txns dropped" []
    m.Cost.txns;
  let z = Cost.merge Cost.zero a in
  Alcotest.(check int) "zero is neutral (steps)" a.Cost.steps z.Cost.steps;
  Alcotest.(check int) "zero is neutral (rmrs)" a.Cost.rmrs z.Cost.rmrs

(* ------------------------------------------------------------------ *)
(* golden rows: the derived costs of the proof's Figure 2 on the
   candidate and of the stock explore sweep on si-clock are pinned
   byte-for-byte — the determinism the cost artifact advertises *)

let row_of tm workload =
  match
    List.find_opt
      (fun (r : Cost_run.row) ->
        r.Cost_run.tm = tm && r.Cost_run.workload = workload)
      (Cost_run.rows_for (Registry.find_exn tm))
  with
  | Some r -> r
  | None -> Alcotest.failf "no %s/%s row" tm workload

let test_golden_fig2_candidate () =
  Alcotest.(check string)
    "figure-2 cost row"
    "{\"schema\":1,\"type\":\"cost_row\",\"tm\":\"candidate\",\"workload\":\"fig2\",\"status\":\"ok\",\"executions\":1,\"steps\":27,\"rmrs\":14,\"rmw\":7,\"rarw\":3,\"footprint\":4,\"capacity\":6,\"commits\":1,\"aborts\":0,\"wasted\":0,\"wasted_contended\":0,\"wasted_uncontended\":0}"
    (Obs_json.to_string (Cost_run.row_json (row_of "candidate" "fig2")))

let test_golden_explore_si_clock () =
  Alcotest.(check string)
    "explore cost row"
    "{\"schema\":1,\"type\":\"cost_row\",\"tm\":\"si-clock\",\"workload\":\"explore\",\"status\":\"ok\",\"executions\":186,\"steps\":2966,\"rmrs\":1865,\"rmw\":1210,\"rarw\":567,\"footprint\":4,\"capacity\":4,\"commits\":372,\"aborts\":0,\"wasted\":0,\"wasted_contended\":0,\"wasted_uncontended\":0}"
    (Obs_json.to_string (Cost_run.row_json (row_of "si-clock" "explore")))

let test_jsonl_deterministic () =
  let impl = Registry.find_exn "candidate" in
  let once () = Cost_run.to_jsonl (Cost_run.rows_for impl) in
  let a = once () and b = once () in
  Alcotest.(check string) "byte-identical" a b;
  (* and the matrix is within its own expectations *)
  Alcotest.(check (list (of_pp Fmt.nop)))
    "expected-cost check clean" []
    (Cost_run.check (Cost_run.rows_for impl))

(* ------------------------------------------------------------------ *)
(* reason codes: the catalogue is the source of truth — stable distinct
   codes, one per constructor *)

let test_reason_catalogue () =
  let codes = List.map fst Reason.catalogue in
  Alcotest.(check int) "distinct codes" (List.length codes)
    (List.length (List.sort_uniq compare codes));
  List.iter
    (fun c ->
      Alcotest.(check bool) (c ^ " well-formed") true
        (String.length c = 8 && String.sub c 0 5 = "PCL-E"))
    codes;
  (* every constructor's code is in the catalogue, and its reason line
     carries the schema stamp *)
  let reasons =
    [
      Reason.Internal_error { exn = "x" };
      Reason.Cli_error { rc = 124 };
      Reason.Invalid_input { msg = "m" };
      Reason.No_consistency { failing = 1; executions = 2; tms = [ "a" ] };
      Reason.Contract_violation
        { violations = 1; runs = 2; kinds = [ ("consistency", 1) ] };
      Reason.Unexpected_findings
        { unexpected = 1; total = 2; lints = [ "race" ] };
      Reason.Closure_violation
        { violations = 1; cells = 2; witnesses = [ "a/b/c" ] };
      Reason.Violation_trace
        { trace = "t"; verdicts = 1; sources = [ "s" ] };
      Reason.Stall { pid = 1; step = None; obj = None; prim = None };
      Reason.Cost_expectation
        { tm = "a"; workload = "explore"; violated = [ "rmw!=0" ] };
      Reason.Soak_stall
        {
          tm = "x";
          pid = 1;
          step = None;
          obj = None;
          prim = None;
          txns = 0;
          target = 1;
        };
      Reason.Progress_violation
        {
          tm = Some "tl-lock";
          pass = "pwf";
          pid = Some 1;
          txn = Some 3;
          witness_step = Some 2;
          unexpected = 1;
        };
      Reason.Conform_failure
        {
          failed = [ "uniform-none-immediate" ];
          timeouts = [];
          scenarios = 60;
          cells = 480;
          quarantined = 1;
        };
    ]
  in
  Alcotest.(check int) "catalogue covers every constructor"
    (List.length reasons)
    (List.length Reason.catalogue);
  List.iter
    (fun r ->
      Alcotest.(check bool)
        (Reason.code r ^ " catalogued")
        true
        (List.mem_assoc (Reason.code r) Reason.catalogue);
      match Reason.to_json r with
      | Obs_json.Obj (("schema", Obs_json.Int 1) :: _) -> ()
      | j ->
          Alcotest.failf "reason line not schema-stamped: %s"
            (Obs_json.to_string j))
    reasons

(* ------------------------------------------------------------------ *)
(* the CLI audit over every module of bin/ (declared test dependencies,
   so a missing module fails instead of skipping) *)

let bin_sources () =
  let files =
    List.filter
      (fun f -> Filename.check_suffix f ".ml")
      (Array.to_list (Sys.readdir "../bin"))
  in
  List.iter
    (fun f ->
      if not (List.mem f files) then Alcotest.failf "../bin/%s is missing" f)
    [ "pcl_tm.ml"; "sweep.ml" ];
  List.map
    (fun f ->
      (f, In_channel.with_open_bin (Filename.concat "../bin" f) In_channel.input_all))
    (List.sort compare files)

let occurrences sub src =
  let n = ref 0 in
  String.iteri
    (fun i _ ->
      if
        String.length sub <= String.length src - i
        && String.sub src i (String.length sub) = sub
      then incr n)
    src;
  !n

let in_bin sub =
  List.fold_left (fun acc (_, src) -> acc + occurrences sub src) 0
    (bin_sources ())

(* every nonzero exit goes through Reason.exit_with, so no module holds a
   bare `exit 1', and the sweeps' failures keep their reason codes *)
let test_cli_no_bare_exits () =
  Alcotest.(check int) "no bare `exit 1' in the CLI" 0 (in_bin "exit 1");
  List.iter
    (fun r ->
      Alcotest.(check bool) (r ^ " is raised by the CLI") true (in_bin r > 0))
    [ "Reason.Soak_stall"; "Reason.Progress_violation"; "Reason.Conform_failure" ]

(* the sweep skeleton is the one module that writes: no other opens an
   output file or prints JSONL *)
let test_cli_one_writer () =
  List.iter
    (fun (f, src) ->
      if f <> "sweep.ml" then
        List.iter
          (fun tok -> Alcotest.(check int) (f ^ ": " ^ tok) 0 (occurrences tok src))
          [
            "open_out"; "Out_channel"; "output_string"; "print_string";
            "print_endline"; "Printf.printf"; "write_jsonl"; "write_chrome";
          ])
    (bin_sources ())

(* and the flags the sweeps share are defined once *)
let test_cli_flags_defined_once () =
  List.iter
    (fun flag -> Alcotest.(check int) flag 1 (in_bin ("info [ " ^ flag)))
    [
      {|"json" ]|}; {|"o"; "output" ]|}; {|"seed" ]|}; {|"all-tms" ]|};
      {|"watch" ]|}; {|"record" ]|}; {|"dump-dir" ]|};
    ]

(* one log representation: detectors take an [Access_log.window], so no
   interface under lib/ exposes an entry list, and no code outside test/
   boxes a log into one *)
let rec sources dir suffix =
  List.concat_map
    (fun f ->
      let path = Filename.concat dir f in
      if Sys.is_directory path then sources path suffix
      else if Filename.check_suffix f suffix then
        [ (path, In_channel.with_open_bin path In_channel.input_all) ]
      else [])
    (List.sort compare (Array.to_list (Sys.readdir dir)))

let test_one_log_representation () =
  let mlis = sources "../lib" ".mli" in
  Alcotest.(check bool) "lib interfaces found" true (List.length mlis > 50);
  List.iter
    (fun (f, src) ->
      Alcotest.(check int) (f ^ ": entry list") 0 (occurrences "entry list" src))
    mlis;
  List.iter
    (fun (f, src) ->
      List.iter
        (fun tok -> Alcotest.(check int) (f ^ ": " ^ tok) 0 (occurrences tok src))
        [ "Access_log.entries"; "Access_log.sub " ])
    (List.concat_map
       (fun d -> sources d ".ml")
       [ "../lib"; "../bin"; "../examples"; "../perfbench" ])

(* one static world: the setup that spawns static transactions as
   processes is written once, as [Static_txn.setup] *)
let test_one_static_setup () =
  List.iter
    (fun (f, src) ->
      if
        not
          (List.mem (Filename.basename f) [ "static_txn.ml"; "static_txn.mli" ])
      then
        Alcotest.(check int) (f ^ ": Static_txn.program") 0
          (occurrences "Static_txn.program" src))
    (List.concat_map
       (fun (d, suffix) -> sources d suffix)
       [ ("../lib", ".ml"); ("../lib", ".mli"); ("../bin", ".ml") ])

(* one declared triangle: what a TM claims is its [contract], never a
   test of its name.  In lib/ and bin/ a registered TM's name is a string
   literal only as its own module's [name], in the three observation
   tables (Figure_lint, Lints, Cost_run) and as the trace command's
   default TM *)
let test_tm_names_only_declared () =
  let tables = [ "figure_lint.ml"; "lints.ml"; "cost_run.ml" ] in
  let srcs =
    List.concat_map
      (fun (d, suffix) -> sources d suffix)
      [ ("../lib", ".ml"); ("../lib", ".mli"); ("../bin", ".ml") ]
  in
  List.iter
    (fun (module M : Tm_intf.S) ->
      let lit = Printf.sprintf "%S" M.name in
      let declared = "let name = " ^ lit
      and trace_default = "| None -> Registry.find_exn " ^ lit in
      Alcotest.(check int) (M.name ^ ": declared once") 1
        (List.fold_left
           (fun n (_, src) -> n + occurrences declared src)
           0 srcs);
      List.iter
        (fun (f, src) ->
          if not (List.mem (Filename.basename f) tables) then
            Alcotest.(check int)
              (f ^ ": " ^ lit)
              (occurrences declared src
              +
              if f = "../bin/pcl_tm.ml" then occurrences trace_default src
              else 0)
              (occurrences lit src))
        srcs)
    Registry.all

(* run the CLI: its exit code and the reason lines on its stderr *)
let pcl_tm args =
  let err = Filename.temp_file "pcl_tm" ".err" in
  let rc =
    Sys.command
      (Filename.quote_command "../bin/pcl_tm.exe" args ~stdout:Filename.null
         ~stderr:err)
  in
  let stderr = In_channel.with_open_bin err In_channel.input_all in
  Sys.remove err;
  let reasons =
    List.filter
      (fun l -> occurrences {|"type":"reason"|} l > 0)
      (String.split_on_char '\n' stderr)
  in
  (rc, stderr, reasons)

(* an out-of-range count is a usage error before anything runs: cmdliner
   names the flag, then exactly one PCL-E001 line *)
let rejects cmd flag values () =
  List.iter
    (fun v ->
      let arg = Printf.sprintf "--%s=%d" flag v in
      let rc, stderr, reasons = pcl_tm [ cmd; arg ] in
      Alcotest.(check int) (arg ^ ": usage exit") 124 rc;
      Alcotest.(check bool)
        (arg ^ ": names the flag") true
        (occurrences ("'--" ^ flag ^ "'") stderr > 0);
      match reasons with
      | [ r ] ->
          Alcotest.(check bool)
            (arg ^ ": PCL-E001") true
            (occurrences {|"code":"PCL-E001"|} r > 0)
      | rs -> Alcotest.failf "%s: %d reason lines" arg (List.length rs))
    values

(* the edge values that work today keep working *)
let test_counts_accepted () =
  List.iter
    (fun (args, want) ->
      let rc, _, reasons = pcl_tm args in
      let line = String.concat " " args in
      Alcotest.(check int) (line ^ ": exit") want rc;
      Alcotest.(check int) (line ^ ": reason lines") want (List.length reasons))
    [
      ([ "lint"; "-t"; "dstm"; "--max-findings"; "0" ], 0);
      ([ "soak"; "-t"; "norec"; "--txns"; "100"; "--segment"; "0" ], 0);
      ([ "soak"; "-t"; "norec"; "--txns"; "0"; "--procs"; "1" ], 0);
      ([ "soak"; "-t"; "norec"; "--txns"; "50"; "--conflict"; "100" ], 0);
      ([ "soak"; "-t"; "norec"; "--txns"; "50"; "--conflict"; "0" ], 0);
      (* the injected stall: a budget too small to finish is a soak
         stall, not a usage error *)
      ([ "soak"; "-t"; "tl-lock"; "--txns"; "1000"; "--budget"; "20" ], 1);
    ]

(* a misspelt or ambiguous -t fails under --all-tms too: exit 1, one
   PCL-E002 line, before anything runs *)
let test_all_tms_checks_tm () =
  List.iter
    (fun args ->
      let rc, _, reasons = pcl_tm args in
      let line = String.concat " " args in
      Alcotest.(check int) (line ^ ": exit") 1 rc;
      match reasons with
      | [ r ] ->
          Alcotest.(check bool)
            (line ^ ": PCL-E002") true
            (occurrences {|"code":"PCL-E002"|} r > 0)
      | rs -> Alcotest.failf "%s: %d reason lines" line (List.length rs))
    [
      [ "cost"; "--all-tms"; "-t"; "bogus" ];
      [ "lint"; "--all-tms"; "-t"; "bogus" ];
      [ "soak"; "--all-tms"; "-t"; "bogus"; "--txns"; "10" ];
      [ "chaos"; "--all-tms"; "-t"; "bogus"; "--iters"; "small" ];
      [ "lint"; "--all-tms"; "-t"; "tl" ];
    ]

(* the metric lines of [pcl_tm report --json args] *)
let report_metrics args =
  let out = Filename.temp_file "pcl_tm" ".jsonl" in
  let rc =
    Sys.command
      (Filename.quote_command "../bin/pcl_tm.exe"
         ("report" :: "--json" :: args)
         ~stdout:out)
  in
  let text = In_channel.with_open_bin out In_channel.input_all in
  Sys.remove out;
  Alcotest.(check int) "report exits 0" 0 rc;
  List.filter_map
    (fun l ->
      match Obs_json.parse l with
      | Ok j when Obs_json.member "type" j = Some (Obs_json.String "metric")
        ->
          Some j
      | _ -> None)
    (String.split_on_char '\n' text)

let label j k =
  Option.bind (Obs_json.member "labels" j) (fun l ->
      Option.bind (Obs_json.member k l) Obs_json.to_str)

let field j k = Option.bind (Obs_json.member k j) Obs_json.to_float

(* T-C: each checker decides the 4-transaction chain (32 events) 100
   times, once for the whole run although every TM is selected *)
let test_report_checkers () =
  let ms = report_metrics [ "-w"; "checkers"; "-n"; "4" ] in
  let find name checker =
    List.filter
      (fun j ->
        Obs_json.member "name" j = Some (Obs_json.String name)
        && label j "checker" = Some checker)
      ms
  in
  List.iter
    (fun (c : Spec.checker) ->
      let name = c.Spec.name in
      (match find "checker_verdict_total" name with
      | [ j ] ->
          Alcotest.(check (option string)) (name ^ " verdict") (Some "sat")
            (label j "verdict");
          Alcotest.(check (option (float 0.))) (name ^ " decisions")
            (Some 100.) (field j "value")
      | js -> Alcotest.failf "%s: %d verdict lines" name (List.length js));
      match find "checker_history_events" name with
      | [ j ] ->
          List.iter
            (fun (k, want) ->
              Alcotest.(check (option (float 0.))) (name ^ " " ^ k) (Some want)
                (field j k))
            [ ("count", 100.); ("min", 32.); ("max", 32.) ]
      | js -> Alcotest.failf "%s: %d size lines" name (List.length js))
    Checkers.all

(* T-B: one labelled run per cell of the procs x conflict grid per TM *)
let test_report_scaling () =
  let ms = report_metrics [ "-w"; "scaling"; "-n"; "1" ] in
  List.iter
    (fun impl ->
      let tm = Registry.name impl in
      let cells =
        List.filter_map
          (fun j ->
            if
              Obs_json.member "name" j
              = Some (Obs_json.String "workload_runs_total")
              && label j "tm" = Some tm
            then
              Some (label j "procs", label j "conflict_pct", field j "value")
            else None)
          ms
      in
      let grid =
        List.concat_map
          (fun p ->
            List.map (fun c -> (Some p, Some c, Some 1.)) [ "0"; "100"; "50" ])
          [ "2"; "4"; "8" ]
      in
      let cell =
        Alcotest.(triple (option string) (option string) (option (float 0.)))
      in
      Alcotest.(check (list cell))
        (tm ^ " cells") grid (List.sort compare cells))
    Registry.all

let count_cases =
  List.map
    (fun (cmd, flag, values) ->
      Alcotest.test_case
        (Printf.sprintf "%s --%s out of range" cmd flag)
        `Quick (rejects cmd flag values))
    [
      ("fuzz", "iterations", [ -5 ]);
      ("report", "iterations", [ -1 ]);
      ("soak", "txns", [ -5 ]);
      ("soak", "budget", [ -1 ]);
      ("soak", "tick", [ -1 ]);
      ("soak", "segment", [ -1 ]);
      ("soak", "procs", [ -2; 0 ]);
      ("soak", "conflict", [ 250; -20; 101 ]);
      ("lint", "horizon", [ -1 ]);
      ("lint", "max-findings", [ -1 ]);
    ]
  @ [
      Alcotest.test_case "edge values accepted" `Quick test_counts_accepted;
      Alcotest.test_case "-t is checked under --all-tms" `Quick
        test_all_tms_checks_tm;
    ]

let () =
  Alcotest.run "cost"
    [
      ( "metering",
        [
          Alcotest.test_case "remote writes increase RMRs" `Quick
            test_rmr_remote_writes_increase;
          Alcotest.test_case "rmw class" `Quick test_rmw_class;
          Alcotest.test_case "merge laws" `Quick test_merge_laws;
        ] );
      ( "golden",
        [
          Alcotest.test_case "figure-2 candidate" `Quick
            test_golden_fig2_candidate;
          Alcotest.test_case "explore si-clock" `Slow
            test_golden_explore_si_clock;
          Alcotest.test_case "jsonl deterministic" `Quick
            test_jsonl_deterministic;
        ] );
      ( "reason",
        [
          Alcotest.test_case "catalogue" `Quick test_reason_catalogue;
          Alcotest.test_case "cli has no bare exits" `Quick
            test_cli_no_bare_exits;
          Alcotest.test_case "only the sweep skeleton writes" `Quick
            test_cli_one_writer;
          Alcotest.test_case "one log representation" `Quick
            test_one_log_representation;
          Alcotest.test_case "one static-world setup" `Quick
            test_one_static_setup;
          Alcotest.test_case "TM names only where declared" `Quick
            test_tm_names_only_declared;
          Alcotest.test_case "shared flags defined once" `Quick
            test_cli_flags_defined_once;
        ] );
      ("counts", count_cases);
      ( "report",
        [
          Alcotest.test_case "checkers table" `Quick test_report_checkers;
          Alcotest.test_case "scaling grid" `Quick test_report_scaling;
        ] );
    ]

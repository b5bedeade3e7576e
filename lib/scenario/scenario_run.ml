(* The conformance runner.  One cell = one deterministic simulation of a
   scenario's workload on one (tm, cm) pair under the scenario's fault
   plan, judged against the declared expectation.  The whole cell body is
   wrapped in a handler: a crash anywhere inside — the TM, the checker,
   the generator, an injected failure — becomes that cell's [crash]
   failure and the sweep moves on.  No wall-clock is read anywhere, so
   rows are byte-deterministic under a fixed seed. *)

open Tm_base
open Tm_trace
open Tm_runtime
open Tm_consistency
open Tm_impl
open Tm_analysis
open Tm_chaos
module J = Tm_obs.Obs_json

type inject = No_inject | Inject_crash | Inject_stall

type cell = {
  tm : string;
  cm : string;
  reason : string option;
  detail : string;
}

type row = {
  id : string;
  family : string;
  fault : string;
  cells : int;
  passed : int;
  failed : int;
  quarantine : bool;
  status : string;
  failures : cell list;
}

let cells_of (s : Scenario.t) =
  let tms =
    match s.Scenario.tms with
    | [] -> Registry.all
    | names -> List.map Registry.find_exn names
  in
  let cms =
    match s.Scenario.cms with
    | [] -> Cm.all
    | names -> List.map Cm.find_exn names
  in
  List.concat_map (fun impl -> List.map (fun cm -> (impl, cm)) cms) tms

(** The stall-injection budget: a handful of steps, small enough that no
    scenario workload — not even a single transaction of the fastest TM
    under the cheapest policy — can finish inside it. *)
let stall_budget = 8

let simulate (s : Scenario.t) ~budget ~seed (impl : Tm_intf.impl)
    (policy : Cm.policy) : Sim.result * int =
  let pids = List.init s.Scenario.procs (fun p -> p + 1) in
  let inst =
    Fault.instantiate s.Scenario.fault ~seed ~pids ~rounds:s.Scenario.rounds
  in
  let commits = ref 0 and gave_up = ref 0 in
  let setup =
    Scenario_gen.setup s ~impl ~policy ~seed ~commits ~gave_up
      ~fault_hook:inst.Fault.hook
  in
  let atoms =
    List.concat
      (List.init s.Scenario.rounds (fun r ->
           inst.Fault.inject ~round:r
           @ List.map
               (fun pid -> Schedule.Steps (pid, s.Scenario.quantum))
               pids))
    @ List.map (fun pid -> Schedule.Until_done pid) pids
  in
  let c = Sim.start ~budget setup in
  let rec drive = function
    | [] -> ()
    | a :: rest -> if (Sim.apply c a).Schedule.halted then () else drive rest
  in
  drive atoms;
  let r = Sim.snapshot ~schedule:atoms c in
  Sim.release c;
  (r, !commits)

let run_cell (s : Scenario.t) ~(inject : inject) ~seed
    (impl : Tm_intf.impl) (policy : Cm.policy) : cell =
  let (module M : Tm_intf.S) = impl in
  let fail reason detail =
    { tm = M.name; cm = policy.Cm.name; reason = Some reason; detail }
  in
  try
    if inject = Inject_crash then
      failwith "injected cell crash (--inject-crash)";
    let budget =
      match inject with Inject_stall -> stall_budget | _ -> s.Scenario.budget
    in
    let r, commits = simulate s ~budget ~seed impl policy in
    let stop = r.Sim.report.Schedule.stop in
    (* an injected stall is always held to "completed": the forced budget
       exhaustion must surface as a timeout failure *)
    let must_complete =
      s.Scenario.expect.Scenario.stop = "completed" || inject = Inject_stall
    in
    match stop with
    | Schedule.Budget_exhausted _ when must_complete ->
        fail "timeout" (Schedule.stop_to_string stop)
    | Schedule.Crashed _ when must_complete ->
        fail "stop" (Schedule.stop_to_string stop)
    | _ -> (
        match History.well_formed r.Sim.history with
        | Error msg -> fail "wellformed" msg
        | Ok () -> (
            let verdict_failure =
              match s.Scenario.expect.Scenario.verdict with
              | "any" -> None
              | v -> (
                  let name =
                    if v = "claim" then M.contract.Tm_intf.condition else v
                  in
                  (* the com(alpha)-based conditions never place aborted
                     transactions: judge the non-aborted core, and skip
                     cores too large to enumerate (same discipline as the
                     crash-closure pass, same counter).  A skipped core or
                     an undecided verdict passes the cell, and is counted
                     as unreached. *)
                  let core = Crash_closure.core r.Sim.history in
                  if History.txn_count core > Crash_closure.max_core_txns
                  then begin
                    Tm_obs.Sink.incr "chaos_closure_skipped_total";
                    None
                  end
                  else
                    let checker = Checkers.find_exn name in
                    match checker.Spec.check ~budget:60_000 core with
                    | Spec.Unsat ->
                        Some
                          (fail "verdict"
                             (name ^ " unsat on the non-aborted core"))
                    | Spec.Out_of_budget ->
                        Tm_obs.Sink.incr
                          ~labels:[ ("checker", name) ]
                          "conform_verdict_out_of_budget_total";
                        None
                    | Spec.Sat -> None)
            in
            match verdict_failure with
            | Some f -> f
            | None -> (
                let lint_failure =
                  if not s.Scenario.expect.Scenario.lint then None
                  else
                    let input =
                      {
                        Lint.log = Access_log.whole (Memory.log r.Sim.mem);
                        history = r.Sim.history;
                        name_of = Memory.name_of r.Sim.mem;
                        data_sets = None;
                        tm = Some M.name;
                        meta = [];
                      }
                    in
                    let res = Lints.run_passes Passes.trace_passes input in
                    match res.Lints.unexpected with
                    | [] -> None
                    | f :: _ ->
                        Some
                          (fail "lint"
                             (Printf.sprintf "unexpected %s finding"
                                f.Lint.pass))
                in
                match lint_failure with
                | Some f -> f
                | None ->
                    let expected = Scenario_gen.expected_commits s in
                    let min_pct =
                      s.Scenario.expect.Scenario.min_commit_pct
                    in
                    if min_pct > 0 && commits * 100 < min_pct * expected
                    then
                      fail "commits"
                        (Printf.sprintf "%d of %d committed (< %d%%)"
                           commits expected min_pct)
                    else
                      {
                        tm = M.name;
                        cm = policy.Cm.name;
                        reason = None;
                        detail = "";
                      })))
  with e -> fail "crash" (Printexc.to_string e)

(* a tiny deterministic string hash, so per-scenario seed derivation does
   not depend on the stdlib's unspecified Hashtbl.hash *)
let id_hash id =
  String.fold_left
    (fun acc ch -> ((acc * 131) + Char.code ch) land 0x3FFFFFFF)
    7 id

let cell_seed ~seed (s : Scenario.t) idx =
  Prng.derive (seed lxor id_hash s.Scenario.id) idx

let run_row ?(tick = fun () -> ()) ~(inject : inject) ~seed
    (s : Scenario.t) : row =
  let cells = cells_of s in
  let results =
    List.mapi
      (fun idx (impl, policy) ->
        (* injections target the scenario's first cell only: one contained
           failure is the property under test, the rest of the sweep must
           proceed normally *)
        let inject = if idx = 0 then inject else No_inject in
        let c = run_cell s ~inject ~seed:(cell_seed ~seed s idx) impl policy in
        tick ();
        c)
      cells
  in
  let failures = List.filter (fun c -> c.reason <> None) results in
  (* counts taken once, not re-derived per field *)
  let n_cells = List.length results in
  let n_failed = List.length failures in
  {
    id = s.Scenario.id;
    family = Scenario.family_to_string s.Scenario.family;
    fault = Fault.name s.Scenario.fault;
    cells = n_cells;
    passed = n_cells - n_failed;
    failed = n_failed;
    quarantine = s.Scenario.quarantine;
    status =
      (if n_failed = 0 then "pass"
       else if s.Scenario.quarantine then "quarantine"
       else "fail");
    failures;
  }

(* -- rendering and the resume journal ---------------------------------- *)

let failure_json (c : cell) =
  J.Obj
    [
      ("tm", J.String c.tm);
      ("cm", J.String c.cm);
      ("reason", J.String (Option.value ~default:"" c.reason));
      ("detail", J.String c.detail);
    ]

let row_json (r : row) : J.t =
  J.Obj
    [
      Tm_obs.Schema.field;
      ("type", J.String "conform");
      ("id", J.String r.id);
      ("family", J.String r.family);
      ("fault", J.String r.fault);
      ("cells", J.Int r.cells);
      ("passed", J.Int r.passed);
      ("failed", J.Int r.failed);
      ("quarantine", J.Bool r.quarantine);
      ("status", J.String r.status);
      ("failures", J.List (List.map failure_json r.failures));
    ]

let cell_json ~id (c : cell) : J.t =
  J.Obj
    [
      Tm_obs.Schema.field;
      ("type", J.String "conform_cell");
      ("id", J.String id);
      ("tm", J.String c.tm);
      ("cm", J.String c.cm);
      ( "status",
        J.String (match c.reason with None -> "pass" | Some r -> r) );
      ("detail", J.String c.detail);
    ]

let journal_load path =
  if not (Sys.file_exists path) then []
  else begin
    let ic = open_in path in
    let lines = ref [] in
    (try
       while true do
         let line = input_line ic in
         match J.parse line with
         | Ok j -> (
             match
               ( Option.bind (J.member "id" j) J.to_str,
                 Option.bind (J.member "status" j) J.to_str )
             with
             | Some id, Some status -> lines := (id, status, line) :: !lines
             | _ -> ())
         | Error _ -> ()
       done
     with End_of_file -> ());
    close_in ic;
    List.rev !lines
  end

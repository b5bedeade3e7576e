(* The chaos sweep: every registered TM crossed with every fault class
   and every contention-manager policy, each cell one deterministic
   simulation.  The output is a robustness matrix — commit rate, retry
   histogram, stop reason, crash-closure status, degradation class versus
   the fault-free control row — with no wall-clock anywhere, so the same
   seed yields byte-identical JSONL. *)

open Tm_base
open Tm_runtime
open Tm_impl

type cfg = {
  tms : Tm_intf.impl list;
  faults : Fault.klass list;
  cms : Cm.policy list;
  n_procs : int;
  txns_per_proc : int;
  rounds : int;  (** scheduled round-robin rounds before the drain phase *)
  quantum : int;  (** steps per process per round *)
  seed : int;
  budget : int;  (** per-[Until_done] step budget of the drain phase *)
  closure_budget : int;  (** checker node budget for crash-closure *)
}

let default =
  {
    tms = Registry.all;
    faults = Fault.all;
    cms = Cm.all;
    n_procs = 3;
    txns_per_proc = 3;
    rounds = 40;
    quantum = 8;
    seed = 1;
    budget = 60_000;
    closure_budget = 60_000;
  }

(** A small preset for CI smoke runs. *)
let small =
  { default with txns_per_proc = 2; rounds = 24; budget = 30_000 }

type cell = {
  tm : string;
  fault : string;
  cm : string;
  victim : int option;
  commits : int;
  expected : int;  (** transactions the workload would commit fault-free *)
  gave_up : int;
  retry_hist : (int * int) list;
      (** aborts-endured-per-transaction -> how many transactions *)
  backoff_steps : int;
  steps : int;
  stop : string;
  crashes : int;  (** injected crash-stops that actually landed *)
  closure_violations : int;  (** crash-closure Error flips — must be 0 *)
  wac_witnesses : int;  (** crash-closure Info flips (adaptive condition) *)
  skipped : int;
      (** crash-closure cores (full history or truncated prefix) skipped
          because they exceed [Crash_closure.max_core_txns] — previously
          only a silent sink counter, now attributed per cell *)
  degradation : string;  (** vs the same (tm, cm) fault-free control cell *)
}

(* -- one cell ---------------------------------------------------------- *)

(** The per-transaction workload: a read-modify-write over one shared and
    one private item, so cells contend on the shared slots but every
    transaction also does private work (the karma policy's currency). *)
let txn_body ~shared ~private_item (txn : Txn_api.txn) =
  let bump x =
    let v = Atomically.read txn x in
    Atomically.write txn x
      (Value.int (1 + Option.value ~default:0 (Value.to_int v)))
  in
  bump shared;
  bump private_item;
  Atomically.Done ()

let run_cell (cfg : cfg) (impl : Tm_intf.impl) (klass : Fault.klass)
    (policy : Cm.policy) : cell =
  let (module M : Tm_intf.S) = impl in
  let pids = List.init cfg.n_procs (fun p -> p + 1) in
  let inst =
    Fault.instantiate klass ~seed:cfg.seed ~pids ~rounds:cfg.rounds
  in
  let shared_items = [ Item.v "s0"; Item.v "s1" ] in
  let private_items =
    List.map (fun p -> (p, Item.v (Printf.sprintf "p%d" p))) pids
  in
  let items = shared_items @ List.map snd private_items in
  let commits = ref 0 and gave_up = ref 0 in
  let retry_counts = ref [] in
  (* backoff steps are read off the (cm, tm) counter as a delta so cells
     sharing a sink stay independent *)
  let metrics = Tm_obs.Sink.metrics Tm_obs.Sink.default in
  let backoff_c =
    Tm_obs.Metrics.counter metrics
      ~labels:[ ("cm", policy.Cm.name); ("tm", M.name) ]
      "cm_backoff_steps_total"
  in
  let backoff_before = Tm_obs.Metrics.counter_value backoff_c in
  let setup mem recorder =
    (match inst.Fault.hook with
    | Some h -> Memory.set_fault_hook mem h
    | None -> ());
    let handle = Txn_api.instantiate impl mem recorder ~items in
    let scratch = Cm.scratch mem in
    let client pid () =
      let rand = Prng.create ((cfg.seed * 1_000) + pid) in
      for k = 1 to cfg.txns_per_proc do
        let shared = Prng.pick rand shared_items in
        let private_item = List.assoc pid private_items in
        match
          Cm.atomically policy ~scratch
            ~seed:((cfg.seed * 10_000) + (pid * 100) + k)
            ~tm:M.name handle ~pid
            (txn_body ~shared ~private_item)
        with
        | Cm.Committed ((), aborts) ->
            incr commits;
            retry_counts := aborts :: !retry_counts
        | Cm.Gave_up aborts ->
            incr gave_up;
            retry_counts := aborts :: !retry_counts
      done
    in
    List.map (fun pid -> (pid, client pid)) pids
  in
  let atoms =
    List.concat
      (List.init cfg.rounds (fun r ->
           inst.Fault.inject ~round:r
           @ List.map (fun pid -> Schedule.Steps (pid, cfg.quantum)) pids))
    @ List.map (fun pid -> Schedule.Until_done pid) pids
  in
  (* drive the script through a live cursor, stopping at the first
     halting atom (a halted session would no-op the tail anyway — the
     incremental engine just skips the wasted walk); [~schedule:atoms]
     keeps the artifact metadata recording the full script, as a
     whole-schedule replay always did *)
  let c = Sim.start ~budget:cfg.budget setup in
  let rec drive = function
    | [] -> ()
    | a :: rest -> if (Sim.apply c a).Schedule.halted then () else drive rest
  in
  drive atoms;
  let r = Sim.snapshot ~schedule:atoms c in
  Sim.release c;
  let crash_steps = List.map snd r.Sim.report.Schedule.crashes in
  let last = Memory.step_count r.Sim.mem in
  (* the ">12 txn core skipped" counter, read as a delta so the cell can
     report how much of its closure check was skipped rather than run *)
  let skipped_c =
    Tm_obs.Metrics.counter metrics "chaos_closure_skipped_total"
  in
  let skipped_before = Tm_obs.Metrics.counter_value skipped_c in
  let flips =
    Crash_closure.check ~budget:cfg.closure_budget
      ~checkers:[ M.contract.Tm_intf.condition ]
      r.Sim.history
      ~cuts:(Crash_closure.cuts ~crash_steps ~last)
  in
  let skipped = Tm_obs.Metrics.counter_value skipped_c - skipped_before in
  let violations, witnesses =
    List.partition
      (fun (f : Crash_closure.flip) -> not f.Crash_closure.adaptivity_witness)
      flips
  in
  let hist =
    let tbl = Hashtbl.create 8 in
    List.iter
      (fun n ->
        Hashtbl.replace tbl n
          (1 + Option.value ~default:0 (Hashtbl.find_opt tbl n)))
      !retry_counts;
    List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])
  in
  Tm_obs.Sink.incr
    ~labels:
      [
        ("tm", M.name); ("fault", Fault.name klass); ("cm", policy.Cm.name);
      ]
    "chaos_cells_total";
  {
    tm = M.name;
    fault = Fault.name klass;
    cm = policy.Cm.name;
    victim = inst.Fault.victim;
    commits = !commits;
    expected = cfg.n_procs * cfg.txns_per_proc;
    gave_up = !gave_up;
    retry_hist = hist;
    backoff_steps = Tm_obs.Metrics.counter_value backoff_c - backoff_before;
    steps = last;
    stop = Schedule.stop_to_string r.Sim.report.Schedule.stop;
    crashes = List.length crash_steps;
    closure_violations = List.length violations;
    wac_witnesses = List.length witnesses;
    skipped;
    degradation = "";  (* filled against the control row by [matrix] *)
  }

(* -- the matrix -------------------------------------------------------- *)

(** How a faulted cell compares to its fault-free control: "none" (no
    commits lost), "degraded" (at least half survive), "severe" (some
    survive), "wedged" (none survive, or the run stalled out). *)
let classify ~(baseline : int) (c : cell) : string =
  let stalled =
    String.length c.stop >= 5 && String.sub c.stop 0 5 = "budge"
  in
  if stalled && c.commits = 0 then "wedged"
  else if c.commits >= baseline then "none"
  else if 2 * c.commits >= baseline then "degraded"
  else if c.commits > 0 then "severe"
  else "wedged"

(** Fill in the degradation class of every cell against its control row:
    the Baseline cell of the same (tm, cm), or the workload size when the
    sweep was run without Baseline. *)
let finalize (cfg : cfg) (cells : cell list) : cell list =
  let baseline_of tm cm =
    match
      List.find_opt
        (fun c -> c.tm = tm && c.cm = cm && c.fault = "none")
        cells
    with
    | Some c -> c.commits
    | None -> cfg.n_procs * cfg.txns_per_proc
  in
  List.map
    (fun c ->
      { c with degradation = classify ~baseline:(baseline_of c.tm c.cm) c })
    cells

(** Every (tm, fault, cm) combination of the configuration, in order —
    the iteration space [matrix] walks, exposed so callers that need
    per-cell setup (e.g. a flight recorder per cell) can walk it
    themselves and [finalize] the result. *)
let combos (cfg : cfg) : (Tm_intf.impl * Fault.klass * Cm.policy) list =
  List.concat_map
    (fun impl ->
      List.concat_map
        (fun klass -> List.map (fun policy -> (impl, klass, policy)) cfg.cms)
        cfg.faults)
    cfg.tms

let matrix (cfg : cfg) : cell list =
  Tm_obs.Sink.span "chaos.matrix" (fun () ->
      finalize cfg
        (List.map
           (fun (impl, klass, policy) -> run_cell cfg impl klass policy)
           (combos cfg)))

(* -- rendering --------------------------------------------------------- *)

let cell_json (c : cell) : Tm_obs.Obs_json.t =
  Tm_obs.Obs_json.Obj
    [
      Tm_obs.Schema.field;
      ("type", Tm_obs.Obs_json.String "chaos_cell");
      ("tm", Tm_obs.Obs_json.String c.tm);
      ("fault", Tm_obs.Obs_json.String c.fault);
      ("cm", Tm_obs.Obs_json.String c.cm);
      ( "victim",
        match c.victim with
        | Some p -> Tm_obs.Obs_json.Int p
        | None -> Tm_obs.Obs_json.Null );
      ("commits", Tm_obs.Obs_json.Int c.commits);
      ("expected", Tm_obs.Obs_json.Int c.expected);
      ("gave_up", Tm_obs.Obs_json.Int c.gave_up);
      ( "retry_hist",
        Tm_obs.Obs_json.Obj
          (List.map
             (fun (aborts, n) ->
               (string_of_int aborts, Tm_obs.Obs_json.Int n))
             c.retry_hist) );
      ("backoff_steps", Tm_obs.Obs_json.Int c.backoff_steps);
      ("steps", Tm_obs.Obs_json.Int c.steps);
      ("stop", Tm_obs.Obs_json.String c.stop);
      ("crashes", Tm_obs.Obs_json.Int c.crashes);
      ("closure_violations", Tm_obs.Obs_json.Int c.closure_violations);
      ("wac_witnesses", Tm_obs.Obs_json.Int c.wac_witnesses);
      ("skipped", Tm_obs.Obs_json.Int c.skipped);
      ("degradation", Tm_obs.Obs_json.String c.degradation);
    ]

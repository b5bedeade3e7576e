(* Million-transaction soak driver.

   A soak pushes a TM far past what one simulator world can hold: the
   access log, history recorder and cursor path all grow linearly with
   steps, so 10^6 transactions in one world would cost hundreds of MB
   and an O(n) teardown.  The driver therefore runs in *segments* —
   each segment is a fresh, small workload world (fresh memory,
   recorder, cursor) driven round-robin to completion and then dropped
   whole — and only O(1) aggregate counters survive segment
   boundaries.  Per-segment seeds derive deterministically from the
   base seed, so the whole soak is one reproducible execution stream:
   same config, same totals, same stall (if any), bit for bit.

   Liveness is policed per segment: a segment that exhausts its step
   budget is the soak's stall signal, attributed like the schedule
   layer attributes a [Budget_exhausted] stop — the wedged process and
   the last step it took (object and primitive included).  The caller
   turns that into the PCL-E108 reason exit.

   Observability: the driver ticks observers on deterministic
   boundaries — [on_tick] every [tick_steps] executed steps (riding
   the {!Schedule.session} tick hook through {!Sim.on_tick}) and
   [on_segment] at each segment boundary.  Each segment body is traced
   as a "soak.segment" span with "soak.drive" nested inside, so the
   span tracer feeds {!Tm_obs.Prof} a stable two-level phase tree. *)

open Tm_base
open Tm_runtime
open Tm_impl

type config = {
  txns : int;  (** target committed transactions (the soak's N) *)
  n_procs : int;
  conflict_pct : int;  (** 0..100, as in {!Workload.config} *)
  items_per_txn : int;
  shared_items : int;
  seed : int;
  max_retries : int;
  segment_txns : int;  (** transactions per process per segment *)
  budget : int;  (** step budget per segment — the liveness fence *)
  tick_steps : int;  (** steps between [on_tick] observer calls *)
}

let default =
  {
    txns = 1_000_000;
    n_procs = 4;
    conflict_pct = 25;
    items_per_txn = 2;
    shared_items = 4;
    seed = 1;
    max_retries = 8;
    segment_txns = 25;
    budget = 200_000;
    tick_steps = 5_000;
  }

type stall = {
  pid : int;  (** the wedged process *)
  step : int option;  (** global index of its last step within its segment *)
  obj : string option;
  prim : string option;
}

type progress = {
  txns_done : int;  (** committed transactions so far *)
  aborts : int;
  steps : int;  (** executed steps, cumulative over all segments *)
  segments : int;  (** segments completed *)
}

type outcome = { progress : progress; stall : stall option }

(* one segment = one small fresh workload world, stepped round-robin to
   completion (every process finished) or to the budget fence *)
let run_segment (impl : Tm_intf.impl) cfg ~segment ~txns_per_proc ~commits
    ~aborts ~tick =
  let wl =
    {
      Workload.n_procs = cfg.n_procs;
      txns_per_proc;
      conflict_pct = cfg.conflict_pct;
      items_per_txn = cfg.items_per_txn;
      shared_items = cfg.shared_items;
      (* deterministic per-segment seed: segments differ, reruns don't *)
      seed = cfg.seed + (7919 * segment);
      max_retries = cfg.max_retries;
    }
  in
  let pids = List.init cfg.n_procs (fun p -> p + 1) in
  let setup mem recorder =
    let handle =
      Txn_api.instantiate impl mem recorder ~items:(Workload.items_for wl)
    in
    List.map
      (fun pid -> (pid, Workload.client wl handle ~pid ~commits ~aborts))
      pids
  in
  let c = Sim.start ~budget:cfg.budget setup in
  Sim.on_tick c tick;
  let check_real_crash pid =
    match Sim.crashed c pid with
    | Some e when not (Scheduler.injected e) -> raise e
    | Some _ | None -> ()
  in
  (* closure-free round loop: one pass both steps the unfinished
     processes and detects completion, so a round allocates nothing *)
  let pid_arr = Array.of_list pids in
  let rec round () =
    if Sim.steps_taken c > cfg.budget then false
    else begin
      let all_done = ref true in
      for i = 0 to Array.length pid_arr - 1 do
        let pid = Array.unsafe_get pid_arr i in
        if not (Sim.finished c pid) then begin
          all_done := false;
          ignore (Sim.step c pid);
          check_real_crash pid
        end
      done;
      if !all_done then true else round ()
    end
  in
  let completed = Tm_obs.Sink.span "soak.drive" round in
  let steps = Sim.steps_taken c in
  let stall =
    if completed then None
    else begin
      let wedged =
        List.find_opt (fun pid -> not (Sim.finished c pid)) pids
      in
      let pid = Option.value ~default:1 wedged in
      let r = Sim.snapshot ~flight:false c in
      (* a stalled segment's world is dropped with processes suspended *)
      Sim.release c;
      let last = Access_log.last_by_pid (Memory.log r.Sim.mem) pid in
      Some
        {
          pid;
          step = Option.map (fun e -> e.Access_log.index) last;
          obj =
            Option.map
              (fun e -> Memory.name_of r.Sim.mem e.Access_log.oid)
              last;
          prim =
            Option.map
              (fun e -> Tm_base.Primitive.kind_name e.Access_log.prim)
              last;
        }
    end
  in
  (steps, stall)

(** Drive the soak: segments of [segment_txns] transactions per process
    until [txns] transactions have committed, or a segment wedges.
    [on_tick] fires on deterministic [tick_steps] boundaries of the
    cumulative step count; [on_segment] at every segment boundary. *)
let run ?(on_tick = fun (_ : progress) -> ())
    ?(on_segment = fun (_ : progress) -> ()) (impl : Tm_intf.impl)
    (cfg : config) : outcome =
  let (module M : Tm_intf.S) = impl in
  let tm_l = [ ("tm", M.name) ] in
  let commits = ref 0 and aborts = ref 0 in
  let steps_before = ref 0 (* completed segments' steps *) in
  let segments = ref 0 in
  let next_tick = ref cfg.tick_steps in
  let progress ~steps =
    {
      txns_done = !commits;
      aborts = !aborts;
      steps;
      segments = !segments;
    }
  in
  let tick segment_steps =
    let total = !steps_before + segment_steps in
    if total >= !next_tick then begin
      next_tick := total + cfg.tick_steps;
      on_tick (progress ~steps:total)
    end
  in
  let stall = ref None in
  let per_segment = max 1 cfg.segment_txns * cfg.n_procs in
  while !stall = None && !commits < cfg.txns do
    let remaining = cfg.txns - !commits in
    (* shrink the last segment so the target is hit, not overshot; the
       per-process count still covers the whole remainder when commits
       lag attempts (retries exhausted count as aborts, not commits) *)
    let txns_per_proc =
      if remaining >= per_segment then max 1 cfg.segment_txns
      else max 1 ((remaining + cfg.n_procs - 1) / cfg.n_procs)
    in
    let before = !commits in
    let seg_steps, seg_stall =
      Tm_obs.Sink.span ~labels:tm_l "soak.segment" (fun () ->
          run_segment impl cfg ~segment:!segments ~txns_per_proc ~commits
            ~aborts ~tick)
    in
    steps_before := !steps_before + seg_steps;
    incr segments;
    stall := seg_stall;
    (* a segment that commits nothing and reports no budget stall would
       loop forever: treat it as a wedge on its first process *)
    if !stall = None && !commits = before then
      stall := Some { pid = 1; step = None; obj = None; prim = None };
    on_segment (progress ~steps:!steps_before)
  done;
  let progress = progress ~steps:!steps_before in
  Tm_obs.Sink.incr ~labels:tm_l "soak_runs_total";
  Tm_obs.Sink.add ~labels:tm_l "soak_txns_total" progress.txns_done;
  Tm_obs.Sink.add ~labels:tm_l "soak_aborts_total" progress.aborts;
  Tm_obs.Sink.add ~labels:tm_l "soak_steps_total" progress.steps;
  Tm_obs.Sink.add ~labels:tm_l "soak_segments_total" progress.segments;
  if !stall <> None then Tm_obs.Sink.incr ~labels:tm_l "soak_stalled_total";
  { progress; stall = !stall }

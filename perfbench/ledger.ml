(* The soak step ledger: where one soak step's time and allocation go.

   The soak's real step sequence is captured once per TM (every memory
   step of every segment, with its response, plus the history events the
   transactional API recorded), then replayed one layer at a time
   through the program's public functions.  Each replay level adds
   exactly one layer on top of the previous one:

     record    Access_log.record of every captured step
     apply     Memory.apply (which logs through Access_log.record)
     handoff   Scheduler.step driving raw Proc.access_t programs
     feed      Schedule.feed_steps of one-step atoms on a session
     cursor    Sim.step on the same raw programs
     real      Soak.run itself (TM logic, Txn_api, Recorder, hooks)

   and the recorder is replayed on its own (Recorder.add of every
   captured event).  A layer's self cost is the difference between
   adjacent levels, and the TM's own logic is what the real soak costs
   beyond the raw cursor and the recorder.  The rows therefore sum to the
   real per-step cost by construction; what can go wrong is a negative
   difference (noise larger than a layer), which is clamped to zero and
   shows as the ledger's gap. *)

open Core

type segment = {
  names : string array;  (** object names, by oid *)
  inits : Value.t array;  (** initial object values, by oid *)
  pid : int array;
  tid : Tid.t option array;
  oid : Oid.t array;
  prim : Primitive.t array;
  response : Value.t array;
  changed : bool array;
  by_pid : (int * int array) list;  (** each process's step indices *)
  events : Event.t array;
}

type capture = {
  impl : Tm_intf.impl;
  cfg : Soak.config;
  segments : segment list;
  steps : int;
}

(* -- capture ------------------------------------------------------------ *)

(* One segment world, built exactly as the soak builds it, with a fault
   hook that never fires: it is consulted before every primitive, which
   is the moment to read the initial value of any object allocated since
   the previous step. *)
let capture_segment impl (cfg : Soak.config) ~segment ~txns_per_proc
    ~commits ~aborts =
  let wl =
    {
      Workload.n_procs = cfg.Soak.n_procs;
      txns_per_proc;
      conflict_pct = cfg.Soak.conflict_pct;
      items_per_txn = cfg.Soak.items_per_txn;
      shared_items = cfg.Soak.shared_items;
      seed = cfg.Soak.seed + (7919 * segment);
      max_retries = cfg.Soak.max_retries;
    }
  in
  let pids = Array.init cfg.Soak.n_procs (fun p -> p + 1) in
  let objs = ref [] and known = ref 0 in
  let sync mem =
    for o = !known to Memory.n_objects mem - 1 do
      objs := (Memory.name_of mem o, Memory.peek mem o) :: !objs
    done;
    known := Memory.n_objects mem
  in
  let world = ref None in
  let setup mem recorder =
    let handle =
      Txn_api.instantiate impl mem recorder ~items:(Workload.items_for wl)
    in
    Memory.set_fault_hook mem (fun ~pid:_ ~tid:_ ~step:_ _ _ ->
        sync mem;
        None);
    world := Some (mem, recorder);
    Array.to_list
      (Array.map
         (fun pid -> (pid, Workload.client wl handle ~pid ~commits ~aborts))
         pids)
  in
  let c = Sim.start ~budget:cfg.Soak.budget setup in
  let rec round () =
    if Sim.steps_taken c > cfg.Soak.budget then false
    else begin
      let all_done = ref true in
      Array.iter
        (fun pid ->
          if not (Sim.finished c pid) then begin
            all_done := false;
            ignore (Sim.step c pid);
            match Sim.crashed c pid with
            | Some e when not (Scheduler.injected e) -> raise e
            | _ -> ()
          end)
        pids;
      !all_done || round ()
    end
  in
  let completed = round () in
  let mem, recorder = Option.get !world in
  let log = Memory.log mem in
  let n = Access_log.length log in
  let objs = Array.of_list (List.rev !objs) in
  let col f = Array.init n f in
  let pid = col (Access_log.pid_at log) in
  let seg =
    {
      names = Array.map fst objs;
      inits = Array.map snd objs;
      pid;
      tid = col (Access_log.tid_at log);
      oid = col (Access_log.oid_at log);
      prim = col (Access_log.prim_at log);
      response = col (Access_log.response_at log);
      changed = col (Access_log.changed_at log);
      by_pid =
        Array.to_list
          (Array.map
             (fun p ->
               ( p,
                 Array.of_list
                   (List.filter (fun i -> pid.(i) = p) (List.init n Fun.id)) ))
             pids);
      events = Array.of_list (History.events (Recorder.history recorder));
    }
  in
  (seg, completed)

(** Capture the real step sequence of [Soak.run impl cfg], segment by
    segment, and check it against the soak itself: the same steps,
    commits, aborts and segments, and no stall.
    @raise Failure when the capture does not reproduce the soak. *)
let capture impl (cfg : Soak.config) : capture =
  let commits = ref 0 and aborts = ref 0 in
  let segments = ref [] and n_segments = ref 0 and stalled = ref false in
  let per_segment = max 1 cfg.Soak.segment_txns * cfg.Soak.n_procs in
  while (not !stalled) && !commits < cfg.Soak.txns do
    let remaining = cfg.Soak.txns - !commits in
    let txns_per_proc =
      if remaining >= per_segment then max 1 cfg.Soak.segment_txns
      else max 1 ((remaining + cfg.Soak.n_procs - 1) / cfg.Soak.n_procs)
    in
    let before = !commits in
    let seg, completed =
      capture_segment impl cfg ~segment:!n_segments ~txns_per_proc ~commits
        ~aborts
    in
    segments := seg :: !segments;
    incr n_segments;
    if (not completed) || !commits = before then stalled := true
  done;
  let steps =
    List.fold_left (fun a s -> a + Array.length s.pid) 0 !segments
  in
  let o = Soak.run impl cfg in
  let p = o.Soak.progress in
  if
    !stalled || o.Soak.stall <> None || p.Soak.steps <> steps
    || p.Soak.txns_done <> !commits || p.Soak.aborts <> !aborts
    || p.Soak.segments <> !n_segments
  then
    Fmt.failwith "ledger capture of %s does not reproduce its soak"
      (Registry.name impl);
  { impl; cfg; segments = List.rev !segments; steps }

(* -- replay levels ------------------------------------------------------ *)

type level = Record | Apply | Handoff | Feed | Cursor | Recorder_add | Real

let levels = [ Record; Apply; Handoff; Feed; Cursor; Recorder_add; Real ]

let fresh_memory seg =
  let mem = Memory.create () in
  Array.iteri
    (fun o name -> ignore (Memory.alloc mem ~name seg.inits.(o)))
    seg.names;
  mem

(* The raw programs: each process issues its captured accesses in order,
   with nothing in between.  [check] sees every response. *)
let programs seg ~check =
  List.map
    (fun (pid, idx) ->
      ( pid,
        fun () ->
          Array.iter
            (fun i ->
              check i (Proc.access_t ~tid:seg.tid.(i) seg.oid.(i) seg.prim.(i)))
            idx ))
    seg.by_pid

let no_check _ _ = ()

(* replay one segment at one level (Real is per TM, not per segment) *)
let replay_segment ?(check = no_check) budget level seg =
  let n = Array.length seg.pid in
  match level with
  | Record ->
      let log = Access_log.create () in
      for i = 0 to n - 1 do
        Access_log.record log ~pid:seg.pid.(i) ~tid:seg.tid.(i)
          ~oid:seg.oid.(i) ~prim:seg.prim.(i) ~response:seg.response.(i)
          ~changed:seg.changed.(i)
      done
  | Apply ->
      let mem = fresh_memory seg in
      for i = 0 to n - 1 do
        check i
          (Memory.apply mem ~pid:seg.pid.(i) ?tid:seg.tid.(i) seg.oid.(i)
             seg.prim.(i))
      done
  | Handoff ->
      let sched = Scheduler.create (fresh_memory seg) in
      List.iter
        (fun (pid, f) -> Scheduler.spawn sched ~pid f)
        (programs seg ~check);
      for i = 0 to n - 1 do
        ignore (Scheduler.step sched seg.pid.(i))
      done
  | Feed ->
      let sched = Scheduler.create (fresh_memory seg) in
      List.iter
        (fun (pid, f) -> Scheduler.spawn sched ~pid f)
        (programs seg ~check);
      let session = Schedule.session ~budget sched in
      let atoms =
        Array.init
          (1 + Array.fold_left max 0 seg.pid)
          (fun p -> Schedule.Steps (p, 1))
      in
      for i = 0 to n - 1 do
        ignore (Schedule.feed_steps session atoms.(seg.pid.(i)))
      done
  | Cursor ->
      let setup mem _recorder =
        Array.iteri
          (fun o name -> ignore (Memory.alloc mem ~name seg.inits.(o)))
          seg.names;
        programs seg ~check
      in
      let c = Sim.start ~budget setup in
      for i = 0 to n - 1 do
        ignore (Sim.step c seg.pid.(i))
      done
  | Recorder_add ->
      let r = Recorder.create () in
      Array.iter (Recorder.add r) seg.events
  | Real -> invalid_arg "Ledger.replay_segment: Real is not a segment replay"

let replay level (c : capture) =
  match level with
  | Real -> ignore (Soak.run c.impl c.cfg)
  | _ -> List.iter (replay_segment c.cfg.Soak.budget level) c.segments

(** Replay every captured step at the response-returning levels and count
    the responses that differ from the recorded ones (0 means the ledger
    replays the real step sequence). *)
let response_mismatches (c : capture) : int =
  let bad = ref 0 in
  List.iter
    (fun seg ->
      let check i v = if not (Value.equal v seg.response.(i)) then incr bad in
      List.iter
        (fun level -> replay_segment ~check c.cfg.Soak.budget level seg)
        [ Apply; Handoff; Feed; Cursor ])
    c.segments;
  !bad

(* -- the ledger --------------------------------------------------------- *)

type row = { name : string; ns : float; words : float }

type t = {
  rows : row list;  (** self cost per step, layer by layer, clamped at 0 *)
  raw : row list;  (** the same differences before clamping *)
  total : row;  (** the real soak's per-step cost *)
  events_per_step : float;
  event_ns : float;
  steps : int;
  rounds : int;
}

(** Time every level over every capture, interleaving the levels round by
    round so drift hits them alike; per level, the median round.  One
    calibration bracket covers a whole round (see Sampler). *)
let measure ~seconds ~min_rounds (caps : capture list) : t =
  let samples = Hashtbl.create 8 in
  let one_round () =
    let k0 = Sampler.kernel_s () in
    let round =
      List.map
        (fun level ->
          (level, snd (Sampler.measure_raw (fun () -> List.iter (replay level) caps))))
        levels
    in
    let speed = Sampler.kernel_reference_s /. ((k0 +. Sampler.kernel_s ()) /. 2.) in
    List.iter
      (fun (level, s) ->
        Hashtbl.replace samples level
          ({ s with Sampler.speed }
          :: Option.value ~default:[] (Hashtbl.find_opt samples level)))
      round
  in
  one_round ();
  (* warm-up *)
  Hashtbl.reset samples;
  let deadline = Unix.gettimeofday () +. seconds in
  let rounds = ref 0 in
  while !rounds < min_rounds || Unix.gettimeofday () < deadline do
    one_round ();
    incr rounds
  done;
  let steps = List.fold_left (fun a (c : capture) -> a + c.steps) 0 caps in
  let fsteps = float_of_int (max 1 steps) in
  let med level =
    let ss = Hashtbl.find samples level in
    ( Sampler.median (List.map Sampler.ref_s ss) *. 1e9 /. fsteps,
      Sampler.median (List.map (fun s -> s.Sampler.words) ss) /. fsteps )
  in
  let ns_of l = fst (med l) and words_of l = snd (med l) in
  let diff name hi lo =
    { name; ns = ns_of hi -. ns_of lo; words = words_of hi -. words_of lo }
  in
  let rec_ns, rec_words = med Recorder_add in
  let raw =
    [
      { name = "access_log.record"; ns = ns_of Record; words = words_of Record };
      diff "memory.apply" Apply Record;
      diff "proc_scheduler.handoff" Handoff Apply;
      diff "schedule.feed" Feed Handoff;
      diff "sim.cursor" Cursor Feed;
      { name = "recorder"; ns = rec_ns; words = rec_words };
      {
        name = "tm.logic";
        ns = ns_of Real -. ns_of Cursor -. rec_ns;
        words = words_of Real -. words_of Cursor -. rec_words;
      };
    ]
  in
  let events =
    List.fold_left
      (fun a (c : capture) ->
        List.fold_left (fun a s -> a + Array.length s.events) a c.segments)
      0 caps
  in
  {
    rows =
      List.map
        (fun r -> { r with ns = Float.max 0. r.ns; words = Float.max 0. r.words })
        raw;
    raw;
    total = { name = "sim.step"; ns = ns_of Real; words = words_of Real };
    events_per_step = float_of_int events /. fsteps;
    event_ns = rec_ns *. fsteps /. float_of_int (max 1 events);
    steps;
    rounds = !rounds;
  }

(** Tolerance on the ledger: the clamped rows must sum to the real
    per-step time within this share of it, and no raw difference may be
    more negative than this share. *)
let tolerance = 0.10

let sum_ns t = List.fold_left (fun a r -> a +. r.ns) 0. t.rows

(** Gap between the clamped rows' sum and the real per-step time, as a
    share of the latter. *)
let gap t = (sum_ns t -. t.total.ns) /. t.total.ns

let within_tolerance t =
  abs_float (gap t) <= tolerance
  && List.for_all (fun r -> r.ns >= -.tolerance *. t.total.ns) t.raw

let row t name = List.find (fun r -> r.name = name) t.rows

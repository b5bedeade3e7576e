(* The incremental execution engine.

   An execution is identified by its schedule from the initial
   configuration C_0, and determinism makes the identification exact: the
   same setup fed the same atoms reaches the same configuration.  A
   [cursor] exploits this both ways.  Forwards, it holds a *live* world —
   memory, recorder, scheduler, schedule session — that advances one atom
   at a time without ever re-executing its prefix.  Backwards, forking a
   cursor is O(1): the fork shares the executed path as a prefix of its
   parent's buffer and rebuilds a live world lazily, by replaying that
   prefix, only if it is ever queried or advanced.  A
   search-tree node is therefore a cheap resumable state, not a pid path
   that costs a replay per query (OCaml effects give us one-shot
   continuations, so the live world itself can never be duplicated —
   lazy replay is what makes forking sound).

   [replay] — the original API — is now a thin wrapper: start a cursor,
   feed the whole schedule, snapshot. *)

open Tm_base
open Tm_trace

(** A world under test: given fresh memory and a fresh history recorder,
    set up whatever shared state is needed and return the per-process
    programs to spawn. *)
type setup = Memory.t -> Recorder.t -> (int * (unit -> unit)) list

type result = {
  mem : Memory.t;
  history : History.t;
  report : Schedule.report;
  finished : int -> bool;
  steps_of : int -> int;  (** steps taken by a pid over the whole run *)
}

(* -- cursors ----------------------------------------------------------- *)

type live = {
  mem : Memory.t;
  recorder : Recorder.t;
  sched : Scheduler.t;
  session : Schedule.session;
}

type cursor = {
  setup : setup;
  budget : int;
  mutable path : Intvec.t;  (* packed atoms: this cursor's are the first [len] *)
  mutable len : int;
  mutable owns_path : bool;  (* false while [path] is another cursor's *)
  mutable live : live option;  (* None: a fork not yet re-materialized *)
  mutable tick : (int -> unit) option;
      (* live-progress hook; installed on the session only after a
         re-materialization has replayed the prefix, so replays never
         re-fire ticks that already happened *)
}

(* The executed path is stored packed, one int per atom, in an
   append-only {!Intvec} rather than as a cons per step: tag in the low 3
   bits, pid in the next 21, the [Steps] count above.  Decoding happens
   only off the live step path (re-materialization replays, [path],
   snapshot metadata), and a replay reads a run of single steps without
   decoding it ([feed_path]).

   Buffers are shared between a cursor and its forks.  Only a buffer's
   owner appends to it, and only at its end, so the first [len] atoms a
   fork shares never change under it.  A fork copies its prefix into a
   buffer of its own when it first advances ([extend]): most explorer
   forks are checkpoints that are never advanced and never copy. *)

(* [Steps (pid, 1)] atoms are immutable and identical across every cursor,
   so the single-step engine and the path decoder ([path], snapshot
   metadata) share one per small pid instead of allocating one per step.
   A replay feeds such atoms as runs and decodes none of them. *)
let step1_cache = Array.init 64 (fun pid -> Schedule.Steps (pid, 1))

let step1 pid =
  if pid >= 0 && pid < Array.length step1_cache then
    Array.unsafe_get step1_cache pid
  else Schedule.Steps (pid, 1)

(* encode_atom (Steps (pid, 1)), without the atom *)
let step1_code pid = (1 lsl 24) lor (pid lsl 3)

let encode_atom = function
  | Schedule.Steps (pid, n) -> (n lsl 24) lor (pid lsl 3)
  | Schedule.Until_done pid -> (pid lsl 3) lor 1
  | Schedule.Crash pid -> (pid lsl 3) lor 2
  | Schedule.Park pid -> (pid lsl 3) lor 3
  | Schedule.Unpark pid -> (pid lsl 3) lor 4
  | Schedule.Poison pid -> (pid lsl 3) lor 5

let code_pid code = (code lsr 3) land 0x1F_FFFF

let decode_atom code : Schedule.atom =
  let pid = code_pid code in
  match code land 7 with
  | 0 ->
      if code = step1_code pid then step1 pid
      else Schedule.Steps (pid, code lsr 24)
  | 1 -> Schedule.Until_done pid
  | 2 -> Schedule.Crash pid
  | 3 -> Schedule.Park pid
  | 4 -> Schedule.Unpark pid
  | _ -> Schedule.Poison pid

let path_atoms (c : cursor) : Schedule.atom list =
  let rec go i acc =
    if i < 0 then acc else go (i - 1) (decode_atom (Intvec.get c.path i) :: acc)
  in
  go (c.len - 1) []

(* Append one executed atom to the cursor's path, first copying a shared
   prefix: the buffer's owner may already have appended past it. *)
let extend (c : cursor) code =
  if not c.owns_path then begin
    c.path <- Intvec.prefix c.path c.len;
    c.owns_path <- true
  end;
  Intvec.push c.path code;
  c.len <- c.len + 1

let replays_c = Tm_obs.Sink.counter "sim_cursor_replays_total"

(* Replay path atoms [i..len-1] into a session.  A maximal run of k
   identical [Steps (pid, 1)] codes is fed as one scheduler run, which
   leaves the session as the k atoms would ({!Schedule.feed_run}) and
   lets a replayed spin take the bulk append; the path itself keeps one
   code per atom. *)
let rec feed_path session path len i =
  if i < len then begin
    let code = Intvec.get path i in
    let pid = code_pid code in
    if code = step1_code pid then begin
      let j = ref (i + 1) in
      while !j < len && Intvec.get path !j = code do incr j done;
      Schedule.feed_run session pid (!j - i);
      feed_path session path len !j
    end
    else begin
      ignore (Schedule.feed_steps session (decode_atom code));
      feed_path session path len (i + 1)
    end
  end

(* Build (or rebuild) the live world: fresh memory and recorder, the
   global flight recorder attached to the new log (one flight trace = one
   execution, so a fork's re-materialization re-records its prefix and an
   explorer callback always sees exactly the execution that just ran),
   programs spawned, and the executed path fed back through a fresh
   session.  Determinism makes the result bit-identical to the world the
   cursor was forked from. *)
let materialize (c : cursor) : live =
  match c.live with
  | Some l -> l
  | None ->
      Tm_obs.Metrics.inc (Lazy.force replays_c);
      let mem = Memory.create () in
      let recorder = Recorder.create () in
      (match Flight.default () with
      | Some fl -> Flight.attach fl (Memory.log mem)
      | None -> ());
      let programs = c.setup mem recorder in
      let sched = Scheduler.create mem in
      List.iter (fun (pid, f) -> Scheduler.spawn sched ~pid f) programs;
      let session = Schedule.session ~budget:c.budget sched in
      let l = { mem; recorder; sched; session } in
      c.live <- Some l;
      feed_path session c.path c.len 0;
      Option.iter (Schedule.set_tick session) c.tick;
      l

let fresh ~budget setup =
  let path = Intvec.create () in
  { setup; budget; path; len = 0; owns_path = true; live = None; tick = None }

let start ?(budget = 100_000) (setup : setup) : cursor =
  let c = fresh ~budget setup in
  ignore (materialize c);
  c

(** Install a live-progress hook: called with the session's cumulative
    step count after every atom that executes a step.  Forks inherit
    the hook but a re-materialization replay never re-fires ticks for
    its prefix — ticks mark live progress, not replayed history. *)
let on_tick (c : cursor) f =
  c.tick <- Some f;
  match c.live with
  | Some l -> Schedule.set_tick l.session f
  | None -> ()

(* O(1): the fork shares the parent's path buffer (see [extend]). *)
let fork (c : cursor) : cursor = { c with live = None; owns_path = false }

let is_live (c : cursor) : bool = c.live <> None
let path (c : cursor) : Schedule.atom list = path_atoms c

let finished (c : cursor) pid = Scheduler.finished (materialize c).sched pid
let crashed (c : cursor) pid = Scheduler.crashed (materialize c).sched pid

let pending (c : cursor) pid : Proc.request option =
  Scheduler.pending (materialize c).sched pid

let independent (c : cursor) p q =
  Scheduler.independent (materialize c).sched p q

(** End the live world's suspended fibers and drop the world; a later
    query or step re-materializes it by replay. *)
let release (c : cursor) =
  match c.live with
  | Some l ->
      Scheduler.release l.sched;
      c.live <- None
  | None -> ()

let steps_taken (c : cursor) : int = Memory.step_count (materialize c).mem

(** Feed one schedule atom to the live world.  Executed atoms (and only
    those — a post-stop no-op is not part of the execution) extend the
    cursor's path, so a later fork reproduces exactly this state. *)
let apply (c : cursor) (atom : Schedule.atom) : Schedule.feed_outcome =
  let l = materialize c in
  if Schedule.session_stopped l.session then
    { Schedule.steps = 0; halted = true }
  else begin
    let f = Schedule.feed l.session atom in
    extend c (encode_atom atom);
    f
  end

(** Advance [pid] by one atomic step; true iff the world changed — the
    process took a memory step, its (empty-bodied) program finished on
    being started, or its program failed on being started, which halts
    the session.  Each such step is recorded in the path, so a replay of
    the path halts too.  Constant work beyond the step itself: no prefix
    re-execution, no log-length scan.  False means the world is
    unchanged, its report included: the process had already finished,
    had crashed or is parked, or the session is stopped (a
    genuinely-crashed execution schedules no further steps, exactly as a
    replay of its path would refuse to). *)
let step (c : cursor) pid : bool =
  let l = materialize c in
  if
    Schedule.session_stopped l.session
    || (not (Scheduler.runnable l.sched pid))
    || Schedule.parked l.session pid
  then false
  else
    let taken = Schedule.feed_steps l.session (step1 pid) in
    let changed =
      taken > 0
      || Scheduler.finished l.sched pid
      || Schedule.session_stopped l.session
    in
    if changed then extend c (step1_code pid);
    changed

(* -- snapshots --------------------------------------------------------- *)

(** Package the cursor's current state as a {!result}.  With [flight]
    (the default), the installed flight recorder's run context is filled
    exactly as {!replay} fills it — names, history, schedule, budget,
    stop, crashes, steps — so the trace artifact of a schedule the
    incremental search visited is bit-identical to the artifact a
    from-scratch replay of that schedule would dump.  [schedule]
    overrides the schedule rendered into the metadata (a caller that fed
    a script with an unexecuted tail records the script, as [replay]
    always did). *)
let snapshot ?(flight = true) ?schedule (c : cursor) : result =
  let l = materialize c in
  let alog = Memory.log l.mem in
  let report = Schedule.session_report l.session in
  let steps_of pid = Access_log.pid_step_count alog pid in
  (if flight then
     match Flight.default () with
     | Some fl ->
         Flight.set_names fl
           (Array.init (Memory.n_objects l.mem) (Memory.name_of l.mem));
         Flight.set_history fl (Recorder.history l.recorder);
         Flight.set_meta fl "schedule"
           (Schedule.to_string
              (match schedule with
              | Some atoms -> atoms
              | None -> path_atoms c));
         Flight.set_meta fl "budget" (string_of_int c.budget);
         Flight.set_meta fl "stop"
           (Schedule.stop_to_string report.Schedule.stop);
         (* mark injected crash-stops so `explain` can highlight the
            crash steps and the crash-closure pass can cut there *)
         (match report.Schedule.crashes with
         | [] -> ()
         | cs ->
             Flight.set_meta fl "crashes"
               (String.concat ","
                  (List.map
                     (fun (pid, step) -> Printf.sprintf "p%d@%d" pid step)
                     cs)));
         Flight.set_meta fl "steps" (string_of_int (Access_log.length alog))
     | None -> ());
  {
    mem = l.mem;
    history = Recorder.history l.recorder;
    report;
    finished = (fun pid -> Scheduler.finished l.sched pid);
    steps_of;
  }

(* -- whole-schedule replay --------------------------------------------- *)

let replay ?(budget = 100_000) (setup : setup) (atoms : Schedule.atom list)
    : result =
  Tm_obs.Sink.incr "sim_replay_total";
  let mem_ref = ref None in
  (* bind the span step clock to this replay's memory so nested spans
     (e.g. checker calls made from a probe) report step durations *)
  Tm_obs.Sink.with_step_source
    (fun () ->
      match !mem_ref with Some m -> Memory.step_count m | None -> 0)
    (fun () ->
      Tm_obs.Sink.span "sim.replay" (fun () ->
          let c = fresh ~budget setup in
          let l = materialize c in
          mem_ref := Some l.mem;
          List.iter (fun a -> ignore (apply c a)) atoms;
          let r = snapshot ~schedule:atoms c in
          (* nothing can advance this world after the replay returns *)
          release c;
          Tm_obs.Sink.observe "sim_replay_steps"
            (float_of_int (Memory.step_count l.mem));
          r))

(** [solo_length setup pid] — number of steps [pid]'s program needs to run
    solo from C_0 to completion, or [None] if it exceeds the budget. *)
let solo_length ?budget (setup : setup) ~(prefix : Schedule.atom list) pid :
    int option =
  let r = replay ?budget setup (prefix @ [ Schedule.Until_done pid ]) in
  match r.report.stop with
  | Schedule.Completed ->
      (* last atom's step count *)
      let rec last = function
        | [] -> None
        | [ n ] -> Some n
        | _ :: rest -> last rest
      in
      last r.report.steps_per_atom
  | Schedule.Budget_exhausted _ | Schedule.Crashed _ -> None

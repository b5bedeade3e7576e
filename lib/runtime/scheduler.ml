(* The deterministic step-granularity scheduler.

   Processes are spawned as thunks; the scheduler advances a chosen process
   by exactly one atomic step at a time.  Any execution of the paper's model
   (solo runs, single adversarial steps, arbitrary interleavings) is a
   sequence of [step] calls, and identical sequences produce bit-identical
   memory states, access logs and histories.  A run of several steps of
   one process ([run_steps], [run_solo]) is one handoff: the process takes
   all but the first on the credit it is resumed with (see {!Proc}). *)

open Tm_base

exception Injected_crash of { pid : int; step : int }
(** The tag distinguishing a chaos-engine crash-stop from a genuine OCaml
    exception escaping a process.  Consumers of {!crashed} must treat the
    two differently: an injected crash is scripted adversity the rest of
    the system should survive, a real exception is a TM bug that must
    never be masked by a chaos run. *)

let injected = function Injected_crash _ -> true | _ -> false

type status =
  | Not_started of (unit -> unit)
  | Pending  (* suspended at a step: request in [slot], continuation in [k] *)
  | Stepping  (* transient marker while a continuation is running *)
  | Finished
  | Failed of exn

(* Raised into a suspended process by {!release}.  Private, so no process
   code can catch it by name; the handler counts no crash for it. *)
exception Released

(* The [k] of a cell that has never been suspended: the continuation of
   a throwaway fiber, ended at once, so it holds no stack and resuming it
   raises [Continuation_already_resumed].  [k] is read only while the
   cell is [Pending] or [stopped], each entered by storing the process's
   own continuation first. *)
let no_continuation =
  let k : (Value.t, unit) Effect.Deep.continuation option ref = ref None in
  let effc (type a) (eff : a Effect.t) =
    match eff with
    | Proc.Step ->
        Some (fun (c : (a, unit) Effect.Deep.continuation) -> k := Some c)
    | _ -> None
  in
  Effect.Deep.match_with Effect.perform Proc.Step
    { retc = ignore; exnc = ignore; effc };
  let k = Option.get !k in
  Effect.Deep.discontinue k Exit;
  k

type cell = {
  pid : int;
  mutable status : status;
  slot : Proc.slot;  (* the request this process is pending on *)
  mutable k : (Value.t, unit) Effect.Deep.continuation;
      (* the suspended process: kept here rather than in [Pending] so a
         step allocates no box around it *)
  mutable stopped : bool;
      (* crash-stopped while [Pending]: [k] is a fiber {!release} must
         still end *)
  mutable on_step : ((Value.t, unit) Effect.Deep.continuation -> unit) option;
      (* the effect handler's resume closure, built once per process so
         performing a step allocates neither a closure nor its [Some] *)
}

let make_cell pid f =
  let slot = Proc.slot () in
  slot.pid <- pid;
  let c =
    { pid; status = Not_started f; slot; k = no_continuation;
      stopped = false; on_step = None }
  in
  c.on_step <-
    Some
      (fun k ->
        c.k <- k;
        c.status <- Pending);
  c

(* Cells live in a dense array indexed by pid (pids are small ints chosen
   by setups): stepping a process is an array read, not a hashtable probe
   that boxes its answer in an option on every one of the millions of
   steps a soak run takes. *)
type t = {
  mem : Memory.t;
  run_mem : Memory.t option;
      (* [Some mem], built once: the memory a granted run's slot holds *)
  mutable cells : cell option array;
}

let create mem = { mem; run_mem = Some mem; cells = Array.make 8 None }
let memory t = t.mem

let spawn_c = Tm_obs.Sink.counter "sched_spawn_total"

let spawn t ~pid f =
  if pid < 0 then invalid_arg "Scheduler.spawn: negative pid";
  if pid >= Array.length t.cells then begin
    let cap = max (pid + 1) (2 * Array.length t.cells) in
    let cells = Array.make cap None in
    Array.blit t.cells 0 cells 0 (Array.length t.cells);
    t.cells <- cells
  end;
  (match t.cells.(pid) with
  | Some _ ->
      invalid_arg (Printf.sprintf "Scheduler.spawn: pid %d already exists" pid)
  | None -> ());
  Tm_obs.Metrics.inc (Lazy.force spawn_c);
  t.cells.(pid) <- Some (make_cell pid f)

let cell t pid =
  if pid >= 0 && pid < Array.length t.cells then
    match Array.unsafe_get t.cells pid with
    | Some c -> c
    | None ->
        invalid_arg (Printf.sprintf "Scheduler.step: unknown pid %d" pid)
  else invalid_arg (Printf.sprintf "Scheduler.step: unknown pid %d" pid)

(* Fibers started and not yet ended, over every scheduler of the
   process.  A test seam ({!live_fibers}): a suspended fiber that is
   dropped instead of released keeps its stack for good. *)
let fibers = ref 0

let live_fibers () = !fibers

let handler (c : cell) : (unit, unit) Effect.Deep.handler =
  {
    retc =
      (fun () ->
        decr fibers;
        c.status <- Finished);
    exnc =
      (fun e ->
        decr fibers;
        match e with
        | Released -> ()
        | e ->
            Tm_obs.Sink.incr "sched_crash_total";
            c.status <- Failed e);
    effc =
      (fun (type a) (eff : a Effect.t) ->
        match eff with
        | Proc.Step ->
            (* the GADT match refines [a] to [Value.t], so the cell's
               pre-built resume closure is returned as-is *)
            (c.on_step : ((a, unit) Effect.Deep.continuation -> unit) option)
        | _ -> None);
  }

let start_if_needed (c : cell) =
  match c.status with
  | Not_started f ->
      c.status <- Stepping;
      incr fibers;
      Proc.set_current c.slot;
      Effect.Deep.match_with f () (handler c)
  | _ -> ()

type step_result = Stepped | Already_finished | Crashed of exn

(* [advance]'s answer: the steps taken when the process moved, the
   first applied here and the rest on its credit; or one of two codes. *)
let blocked = -1  (* one step, a failed await attempt: still pending on it *)
let stuck = -2  (* no step: the process had finished or crashed *)

(* Make a pending process the running one, before its continuation is
   resumed: its next access fills its own slot. *)
let running (c : cell) =
  c.status <- Stepping;
  Proc.set_current c.slot

(* The end of a granted run: take the credit and the memory back from the
   slot, and raise here a raise the process handed over with.  Answers
   the steps the process took on the credit. *)
let reclaim (s : Proc.slot) credit =
  let left = s.credit in
  s.credit <- 0;
  s.mem <- None;
  match s.raised with
  | None -> credit - left
  | Some e ->
      s.raised <- None;
      raise e

(* Resume the process with a response, granting it [credit] more steps of
   the atom to take itself: for the run, its slot holds the credit and
   the memory.  Answers the steps it took on the credit. *)
let[@inline] resume t (c : cell) resp credit =
  running c;
  if credit = 0 then begin
    Effect.Deep.continue c.k resp;
    0
  end
  else begin
    let s = c.slot in
    s.credit <- credit;
    s.mem <- t.run_mem;
    Effect.Deep.continue c.k resp;
    reclaim s credit
  end

(* An await attempt's response: resume the process with it if [until]
   accepts it (or raise [until]'s exception at the await, granting
   nothing), else leave the process pending on the same request. *)
let attempt t (c : cell) resp credit =
  let s = c.slot in
  match s.until resp with
  | false -> blocked
  | true ->
      s.awaiting <- false;
      1 + resume t c resp credit
  | exception e ->
      s.awaiting <- false;
      running c;
      Effect.Deep.discontinue c.k e;
      1

(* One step of [c], and up to [credit] more that it takes itself. *)
let advance t (c : cell) credit =
  start_if_needed c;
  match c.status with
  | Finished | Failed _ -> stuck
  | Pending ->
      let s = c.slot in
      let resp = Memory.apply t.mem ~pid:c.pid ?tid:s.tid s.oid s.prim in
      (* the handler updates the status to Pending/Finished/Failed *)
      if s.awaiting then attempt t c resp credit
      else 1 + resume t c resp credit
  | Not_started _ | Stepping -> assert false

(** Advance process [pid] by one atomic step.  Starting a process runs its
    local code up to (and including) its first primitive. *)
let step t pid : step_result =
  let c = cell t pid in
  if advance t c 0 <> stuck then Stepped
  else match c.status with Failed e -> Crashed e | _ -> Already_finished

(** Crash-stop process [pid] (the asynchronous model's fault: a crashed
    process is simply never scheduled again).  Its suspended fiber is kept
    until {!release} ends it: a fiber that is never resumed keeps its
    stack for good.  No-op if the process already finished or crashed. *)
let inject_crash t pid =
  let c = cell t pid in
  match c.status with
  | Finished | Failed _ -> ()
  | Not_started _ | Pending | Stepping ->
      Tm_obs.Sink.incr "sched_injected_crash_total";
      c.stopped <- (match c.status with Pending -> true | _ -> false);
      c.status <-
        Failed (Injected_crash { pid; step = Memory.step_count t.mem })

(** End every suspended fiber by raising a private exception at its
    pending step (see the interface). *)
let release t =
  Array.iter
    (function
      | Some c ->
          let suspended =
            match c.status with
            | Pending ->
                c.status <- Failed Released;
                true
            | Failed _ -> c.stopped
            | Not_started _ | Stepping | Finished -> false
          in
          if suspended then begin
            c.stopped <- false;
            Effect.Deep.discontinue c.k Released
          end
      | None -> ())
    t.cells

let finished t pid =
  match (cell t pid).status with Finished -> true | _ -> false

(** The request process [pid] will issue at its next step, if its local
    code has already run up to a primitive.  [None] for a process that
    was never stepped ([Not_started] — its first access is unknown until
    its prelude runs) and for finished or crashed processes.  The request
    is stable until [pid] itself is stepped, which is what makes it
    usable as the conflict oracle of a partial-order-reduced search. *)
let pending t pid =
  let c = cell t pid in
  match c.status with
  | Pending ->
      let s = c.slot in
      Some { Proc.oid = s.oid; prim = s.prim; tid = s.tid }
  | Not_started _ | Stepping | Finished | Failed _ -> None

(** [pending]'s answers for [p] and [q] compared without building either:
    both known, and on distinct objects or both trivial. *)
let independent t p q =
  let a = cell t p and b = cell t q in
  match (a.status, b.status) with
  | Pending, Pending ->
      (not (Oid.equal a.slot.oid b.slot.oid))
      || Primitive.commute a.slot.prim b.slot.prim
  | _ -> false

let crashed t pid =
  match (cell t pid).status with Failed e -> Some e | _ -> None

type crash_state = No_crash | Injected_stop | Genuine of exn

(** Allocation-free crash query for the schedule interpreter, which asks
    after every quantum: the common answers carry no payload. *)
let crash_state t pid =
  match (cell t pid).status with
  | Failed e -> if injected e then Injected_stop else Genuine e
  | _ -> No_crash

let runnable t pid =
  match (cell t pid).status with
  | Not_started _ | Pending -> true
  | Stepping | Finished | Failed _ -> false

(* The spin fast-forward.  After a [blocked] step with [left] steps of
   the atom to go, and only this process running in them, every one of
   those steps re-issues the failed attempt: if that attempt changed
   nothing and no fault hook can vary a step, each repeat answers the same
   response, fails [until] again and changes nothing (the fixed-point law
   {!Memory.repeat_last} rests on).  So the remainder is one bulk append;
   true iff it was taken. *)
let spin_forward t left = left > 0 && Memory.repeat_last t.mem left

(* The run loops are top-level functions that take their state as
   arguments: a local [go] closing over the cell and the bound would
   allocate a closure per call, and [Sim.step] makes one call per step.
   Each advance grants the process the rest of the atom as credit. *)
let rec run_steps_from t c n taken =
  if taken >= n then taken
  else
    let k = advance t c (n - taken - 1) in
    if k > 0 then run_steps_from t c n (taken + k)
    else if k = blocked then
      if spin_forward t (n - taken - 1) then n
      else run_steps_from t c n (taken + 1)
    else taken

(** Run [pid] for at most [n] steps; returns the number of steps taken
    (fewer than [n] only if the process finished or crashed). *)
let run_steps t pid n = run_steps_from t (cell t pid) n 0

type solo_result = Done of int | Out_of_budget | Crash of exn

(* a [stuck] advance loops once more, to the status that answers it *)
let rec run_solo_from t c budget taken =
  match c.status with
  | Finished -> Done taken
  | Failed e -> Crash e
  | Not_started _ | Pending | Stepping ->
      if taken >= budget then Out_of_budget
      else
        let k = advance t c (budget - taken - 1) in
        if k > 0 then run_solo_from t c budget (taken + k)
        else if k = blocked then
          if spin_forward t (budget - taken - 1) then
            run_solo_from t c budget budget
          else run_solo_from t c budget (taken + 1)
        else run_solo_from t c budget taken

(** Run [pid] solo until it finishes, up to [budget] steps.  [Done n] means
    the process finished after [n] further steps.  [Out_of_budget] is how a
    blocking TM's failure to make solo progress manifests. *)
let run_solo t pid ~budget : solo_result =
  run_solo_from t (cell t pid) budget 0

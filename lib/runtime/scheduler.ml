(* The deterministic step-granularity scheduler.

   Processes are spawned as thunks; the scheduler advances a chosen process
   by exactly one atomic step at a time.  Any execution of the paper's model
   (solo runs, single adversarial steps, arbitrary interleavings) is a
   sequence of [step] calls, and identical sequences produce bit-identical
   memory states, access logs and histories. *)

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
  | Pending of (Value.t, unit) Effect.Deep.continuation
      (* the request itself lives in the cell's [req] field: splitting it
         off keeps the per-step [Pending] box at its minimum size *)
  | Stepping  (* transient marker while a continuation is running *)
  | Finished
  | Failed of exn

type cell = {
  pid : int;
  mutable status : status;
  mutable req : Proc.request;  (* meaningful only while status = Pending *)
  mutable on_step : ((Value.t, unit) Effect.Deep.continuation -> unit) option;
      (* the effect handler's resume closure, built once per process so
         performing a step allocates neither a closure nor its [Some] *)
  mutable awaiting : bool;
      (* the pending request is an [Await]: resume only on a response
         [until] accepts.  Set by the await handler and cleared when the
         await resumes, so the [Step] path only tests it *)
  mutable until : Value.t -> bool;  (* meaningful only while [awaiting] *)
}

let dummy_req : Proc.request =
  { Proc.oid = Oid.of_int 0; prim = Primitive.Read; tid = None }

let make_cell pid f =
  let c =
    { pid; status = Not_started f; req = dummy_req; on_step = None;
      awaiting = false; until = Fun.const false }
  in
  c.on_step <- Some (fun k -> c.status <- Pending k);
  c

(* Cells live in a dense array indexed by pid (pids are small ints chosen
   by setups): stepping a process is an array read, not a hashtable probe
   that boxes its answer in an option on every one of the millions of
   steps a soak run takes. *)
type t = { mem : Memory.t; mutable cells : cell option array }

let create mem = { mem; cells = Array.make 8 None }
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

let handler (c : cell) : (unit, unit) Effect.Deep.handler =
  {
    retc = (fun () -> c.status <- Finished);
    exnc =
      (fun e ->
        Tm_obs.Sink.incr "sched_crash_total";
        c.status <- Failed e);
    effc =
      (fun (type a) (eff : a Effect.t) ->
        match eff with
        | Proc.Step req ->
            (* the GADT match refines [a] to [Value.t], so the cell's
               pre-built resume closure is returned as-is *)
            c.req <- req;
            (c.on_step : ((a, unit) Effect.Deep.continuation -> unit) option)
        | Proc.Await (req, until) ->
            c.req <- req;
            c.until <- until;
            c.awaiting <- true;
            (c.on_step : ((a, unit) Effect.Deep.continuation -> unit) option)
        | _ -> None);
  }

let start_if_needed (c : cell) =
  match c.status with
  | Not_started f ->
      c.status <- Stepping;
      Effect.Deep.match_with f () (handler c)
  | _ -> ()

type step_result = Stepped | Already_finished | Crashed of exn

(* [step]'s outcome as the run loops see it: [Blocked] is a step that was
   a failed await attempt, after which the process is still pending on
   the same request. *)
type advance = Resumed | Blocked | Was_finished | Was_crashed of exn

(* An await attempt's response: resume the process with it if [until]
   accepts it (or raise [until]'s exception at the await), else leave the
   process pending on the same request. *)
let attempt (c : cell) k resp =
  match c.until resp with
  | false -> Blocked
  | true ->
      c.awaiting <- false;
      c.status <- Stepping;
      Effect.Deep.continue k resp;
      Resumed
  | exception e ->
      c.awaiting <- false;
      c.status <- Stepping;
      Effect.Deep.discontinue k e;
      Resumed

let advance t (c : cell) : advance =
  start_if_needed c;
  match c.status with
  | Finished -> Was_finished
  | Failed e -> Was_crashed e
  | Pending k ->
      let req = c.req in
      let resp =
        Memory.apply t.mem ~pid:c.pid ?tid:req.tid req.oid req.prim
      in
      if c.awaiting then attempt c k resp
      else begin
        c.status <- Stepping;
        Effect.Deep.continue k resp;
        (* the handler has updated the status to Pending/Finished/Failed *)
        Resumed
      end
  | Not_started _ | Stepping -> assert false

(** Advance process [pid] by one atomic step.  Starting a process runs its
    local code up to (and including) its first primitive. *)
let step t pid : step_result =
  match advance t (cell t pid) with
  | Resumed | Blocked -> Stepped
  | Was_finished -> Already_finished
  | Was_crashed e -> Crashed e

(** Crash-stop process [pid] (the asynchronous model's fault: a crashed
    process is simply never scheduled again).  The pending continuation is
    dropped — its stack vanishes, exactly crash-stop semantics.  No-op if
    the process already finished or crashed. *)
let inject_crash t pid =
  let c = cell t pid in
  match c.status with
  | Finished | Failed _ -> ()
  | Not_started _ | Pending _ | Stepping ->
      Tm_obs.Sink.incr "sched_injected_crash_total";
      c.status <-
        Failed (Injected_crash { pid; step = Memory.step_count t.mem })

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
  | Pending _ -> Some c.req
  | Not_started _ | Stepping | Finished | Failed _ -> None

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
  | Not_started _ | Pending _ -> true
  | Stepping | Finished | Failed _ -> false

(* The spin fast-forward.  After a [Blocked] step with [left] steps of
   the atom to go, and only this process running in them, every one of
   those steps re-issues the failed attempt: if that attempt changed
   nothing and no fault hook can vary a step, each repeat answers the same
   response, fails [until] again and changes nothing (the fixed-point law
   {!Memory.repeat_last} rests on).  So the remainder is one bulk append;
   true iff it was taken. *)
let spin_forward t left = left > 0 && Memory.repeat_last t.mem left

(* The run loops are top-level functions that take their state as
   arguments: a local [go] closing over the cell and the bound would
   allocate a closure per call, and [Sim.step] makes one call per step. *)
let rec run_steps_from t c n taken =
  if taken >= n then taken
  else
    match advance t c with
    | Resumed -> run_steps_from t c n (taken + 1)
    | Blocked ->
        if spin_forward t (n - taken - 1) then n
        else run_steps_from t c n (taken + 1)
    | Was_finished | Was_crashed _ -> taken

(** Run [pid] for at most [n] steps; returns the number of steps taken
    (fewer than [n] only if the process finished or crashed). *)
let run_steps t pid n = run_steps_from t (cell t pid) n 0

type solo_result = Done of int | Out_of_budget | Crash of exn

let rec run_solo_from t c budget taken =
  match c.status with
  | Finished -> Done taken
  | Failed e -> Crash e
  | Not_started _ | Pending _ | Stepping -> (
      if taken >= budget then Out_of_budget
      else
        match advance t c with
        | Resumed -> run_solo_from t c budget (taken + 1)
        | Blocked ->
            if spin_forward t (budget - taken - 1) then
              run_solo_from t c budget budget
            else run_solo_from t c budget (taken + 1)
        | Was_finished -> Done taken
        | Was_crashed e -> Crash e)

(** Run [pid] solo until it finishes, up to [budget] steps.  [Done n] means
    the process finished after [n] further steps.  [Out_of_budget] is how a
    blocking TM's failure to make solo progress manifests. *)
let run_solo t pid ~budget : solo_result =
  run_solo_from t (cell t pid) budget 0

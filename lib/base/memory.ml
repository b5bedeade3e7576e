(* Shared memory: the collection of base objects of the simulated
   asynchronous system, plus the access log.

   [apply] is the only way to touch an object's state and corresponds to one
   atomic step of the paper's model.  Allocation ([alloc]) is not a step:
   TM implementations pre-allocate their shared representation when they are
   created (or allocate deterministically at begin time, e.g. per-transaction
   status words), which models the objects simply existing in the initial
   configuration. *)

type fault = Spurious_fail

type fault_hook =
  pid:int -> tid:Tid.t option -> step:int -> Oid.t -> Primitive.t ->
  fault option

type t = {
  mutable objects : Base_object.t array;
  mutable n_objects : int;
  mutable names : string array;
  by_name : (string, Oid.t) Hashtbl.t;
  log : Access_log.t;
  mutable tm_prim_c : Tm_obs.Metrics.counter array option;
      (** the TM's own per-kind counters ({!count_prims}), bumped beside
          [prim_c] *)
  changed_scratch : bool ref;
      (** reused out-param for {!Base_object.apply_into}, so a step does
          not allocate a response pair *)
  mutable fault : fault_hook option;
      (** consulted before a primitive is applied: the chaos engine's
          injection point for spurious RMW failures *)
  doomed : (int, unit) Hashtbl.t;
      (** pids whose current transaction has been poisoned (force-abort
          at its next transactional operation) *)
  steps_c : Tm_obs.Metrics.counter;
  prim_c : Tm_obs.Metrics.counter array;  (** indexed by primitive kind *)
  faults_c : Tm_obs.Metrics.counter;
}

(* Telemetry handles, resolved once per process by the first [create].
   That registers every cell, at zero until it counts, so a report lists
   all primitive kinds whether or not they were applied. *)
let handles =
  lazy
    (let m = Tm_obs.Sink.metrics Tm_obs.Sink.default in
     ( Tm_obs.Metrics.counter m "mem_steps_total",
       Array.init Primitive.n_kinds (fun i ->
           Tm_obs.Metrics.counter m
             ~labels:[ ("prim", Primitive.kind_names.(i)) ]
             "mem_prim_total"),
       Tm_obs.Metrics.counter m "mem_spurious_faults_total" ))

(* [sched_pid_steps_total{pid}] handles, indexed by pid.  A pid's handle
   is resolved at its first step, which registers its cell when it first
   counts.  The array grows off the step path, so a step allocates
   nothing. *)
let pid_steps : Tm_obs.Metrics.counter option array ref = ref [||]

let resolve_pid pid =
  let a = !pid_steps in
  if pid >= Array.length a then begin
    let b = Array.make (max 16 (max (pid + 1) (2 * Array.length a))) None in
    Array.blit a 0 b 0 (Array.length a);
    pid_steps := b
  end;
  let c =
    Tm_obs.Metrics.counter
      (Tm_obs.Sink.metrics Tm_obs.Sink.default)
      ~labels:[ ("pid", string_of_int pid) ]
      "sched_pid_steps_total"
  in
  !pid_steps.(pid) <- Some c;
  c

let pid_counter pid =
  let a = !pid_steps in
  match if pid < Array.length a then Array.unsafe_get a pid else None with
  | Some c -> c
  | None -> resolve_pid pid

let create () =
  let steps_c, prim_c, faults_c = Lazy.force handles in
  {
    objects = Array.make 16 (Base_object.create Value.unit);
    n_objects = 0;
    names = Array.make 16 "";
    by_name = Hashtbl.create 16;
    log = Access_log.create ();
    tm_prim_c = None;
    fault = None;
    changed_scratch = ref false;
    doomed = Hashtbl.create 4;
    steps_c;
    prim_c;
    faults_c;
  }

let grow t =
  let cap = Array.length t.objects in
  if t.n_objects = cap then begin
    let objects = Array.make (2 * cap) (Base_object.create Value.unit) in
    Array.blit t.objects 0 objects 0 cap;
    t.objects <- objects;
    let names = Array.make (2 * cap) "" in
    Array.blit t.names 0 names 0 cap;
    t.names <- names
  end

(** Allocate a fresh base object with initial value [init].  [name] is used
    for logs, figures and [find]; it must be unique. *)
let alloc t ~name init : Oid.t =
  if Hashtbl.mem t.by_name name then
    invalid_arg (Printf.sprintf "Memory.alloc: duplicate name %S" name);
  grow t;
  let oid = t.n_objects in
  t.objects.(oid) <- Base_object.create init;
  t.names.(oid) <- name;
  t.n_objects <- oid + 1;
  Hashtbl.add t.by_name name oid;
  oid

let find t name = Hashtbl.find_opt t.by_name name

let find_exn t name =
  match find t name with
  | Some oid -> oid
  | None -> invalid_arg (Printf.sprintf "Memory.find_exn: no object %S" name)

let name_of t (oid : Oid.t) =
  if oid < 0 || oid >= t.n_objects then
    invalid_arg "Memory.name_of: bad oid"
  else t.names.(oid)

let n_objects t = t.n_objects

(** One atomic step: apply [prim] to object [oid] on behalf of process
    [pid] (attributed to transaction [tid] if given), log it, and return the
    response. *)
(* RMW-class primitives that hardware permits to fail spuriously (LL/SC on
   every real architecture; CAS and test-and-set in the weak models): a
   failure response with unchanged state is always a legal outcome, so
   injecting one can never make an execution ill-formed. *)
let spurious_failure : Primitive.t -> Value.t option = function
  | Primitive.Cas _ | Primitive.Store_conditional _ | Primitive.Try_lock _ ->
      Some (Value.bool false)
  | Primitive.Read | Primitive.Write _ | Primitive.Fetch_add _
  | Primitive.Unlock _ | Primitive.Load_linked _ ->
      None

let apply t ~pid ?tid (oid : Oid.t) (prim : Primitive.t) : Value.t =
  if oid < 0 || oid >= t.n_objects then invalid_arg "Memory.apply: bad oid";
  let faulted =
    match t.fault with
    | None -> None
    | Some f -> (
        match f ~pid ~tid ~step:(Access_log.length t.log) oid prim with
        | Some Spurious_fail -> spurious_failure prim
        | None -> None)
  in
  let changed = t.changed_scratch in
  let response =
    match faulted with
    | Some resp ->
        Tm_obs.Metrics.inc t.faults_c;
        changed := false;
        resp
    | None -> Base_object.apply_into t.objects.(oid) prim ~changed
  in
  Access_log.record t.log ~pid ~tid ~oid ~prim ~response ~changed:!changed;
  Tm_obs.Metrics.inc t.steps_c;
  Tm_obs.Metrics.inc (pid_counter pid);
  let kind = Primitive.kind_index prim in
  Tm_obs.Metrics.inc t.prim_c.(kind);
  (match t.tm_prim_c with Some c -> Tm_obs.Metrics.inc c.(kind) | None -> ());
  response

(* The last step taken [n] more times in one append, when that is exact:
   a step that changed nothing is a fixed point of its primitive, and
   only a fault hook could answer a repeat differently. *)
let repeat_last t n =
  if n < 0 then invalid_arg "Memory.repeat_last: negative count";
  let last = Access_log.length t.log - 1 in
  if Option.is_some t.fault || last < 0 || Access_log.changed_at t.log last
  then false
  else begin
    Access_log.repeat_last t.log n;
    Tm_obs.Metrics.add t.steps_c n;
    Tm_obs.Metrics.add (pid_counter (Access_log.pid_at t.log last)) n;
    let kind = Primitive.kind_index (Access_log.prim_at t.log last) in
    Tm_obs.Metrics.add t.prim_c.(kind) n;
    (match t.tm_prim_c with
    | Some c -> Tm_obs.Metrics.add c.(kind) n
    | None -> ());
    true
  end

(** Debugging read that is not a step and is not logged. *)
let peek t (oid : Oid.t) : Value.t =
  if oid < 0 || oid >= t.n_objects then invalid_arg "Memory.peek: bad oid";
  Base_object.value t.objects.(oid)

let log t = t.log
let step_count t = Access_log.length t.log

(** Attribute every later step to the TM under test as well: [counters]
    is its per-kind array, indexed like [mem_prim_total]'s. *)
let count_prims t counters = t.tm_prim_c <- Some counters

(** Install the fault-injection hook.  It is consulted {e before} each
    primitive is applied; answering [Spurious_fail] on an RMW-class
    primitive (CAS / SC / try-lock) makes the step respond failure without
    touching object state — a legal outcome real hardware permits — while
    the step is still logged and counted normally, so faulted runs replay
    bit-identically. *)
let set_fault_hook t f = t.fault <- Some f

(** Doomed-transaction poison: mark [pid]'s current transaction for a
    forced abort at its next transactional operation.  The flag lives here
    (not in the scheduler) because both the schedule interpreter that sets
    it and the transactional API layer that consumes it see the memory. *)
let poison t pid = Hashtbl.replace t.doomed pid ()

(** Consume [pid]'s poison flag; true iff it was set. *)
let take_poison t pid =
  (* asked at every transactional operation; most memories are never
     poisoned, and the length test spares them the hash *)
  if Hashtbl.length t.doomed > 0 && Hashtbl.mem t.doomed pid then begin
    Hashtbl.remove t.doomed pid;
    true
  end
  else false

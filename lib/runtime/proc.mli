(** Process-side interface to the simulated shared memory.

    A process is an OCaml function running under a {!Scheduler}'s effect
    handler.  Every base-object access writes its request into the
    running process's {!slot} and performs the constant {!Step} effect;
    the scheduler reads the slot, applies the primitive atomically, logs
    it, and resumes the process with the response.  A step in the paper's
    sense — one primitive plus the local computation up to the next one —
    is therefore executed atomically, exactly as in Section 3's model.

    {b The credit.}  Inside an atom that grants a process several steps
    ([Steps (p, k)], [Until_done p]) no other process can move, so the
    scheduler applies the pending request and resumes the process with
    the rest of the atom as {!slot.credit}.  While the credit lasts, an
    access applies its own step with {!Memory.apply} and runs on, and an
    await retries in place (taking the bulk append of a failed attempt
    that changed nothing, as the scheduler does); the process performs
    {!Step} only when the credit is spent, so a run of k steps costs one
    handoff, not k.  The log, the history and every counter are those of
    k single steps.  A primitive that raises during a run is not taken:
    the process hands over pending on it, and the scheduler raises the
    exception in its own place, as it would had it applied the request.
    Single steps ({!Scheduler.step}, [Steps (p, 1)]) grant no credit.

    {b The one-slot invariant.}  The slot an access writes is the one the
    scheduler made current with {!set_current} before it started or
    resumed the running process.  One global current slot is sound only
    while one process runs at a time, on one domain, and no process
    drives a scheduler from inside its own code: a nested scheduler would
    repoint the slot under the outer process, whose next access would be
    written into a slot its own scheduler never reads.  During a granted
    run the slot also holds the run's memory and credit; the scheduler
    takes both back when the process hands over, so between runs the
    current slot holds neither, and a dropped world is not kept alive
    through it. *)

open Tm_base

(** {1 The handoff} *)

type slot = {
  mutable oid : Oid.t;
  mutable prim : Primitive.t;
  mutable tid : Tid.t option;
  mutable awaiting : bool;
      (** the request is an {!await_t}: resume only on a response
          [until] accepts.  Set by [await_t]; the scheduler clears it
          when the await resumes, so a plain access never writes it *)
  mutable until : Value.t -> bool;  (** meaningful only while [awaiting] *)
  mutable credit : int;
      (** steps the running process may still take itself before it
          hands over: granted by the scheduler when it resumes the
          process inside an atom, 0 otherwise *)
  mutable mem : Memory.t option;
      (** the memory those steps apply to: [Some] only during a granted
          run, so a dropped world is never reachable through the slot *)
  mutable pid : int;  (** the owning process, set by the scheduler *)
  mutable raised : exn option;
      (** a primitive that raised during the run: the process hands over
          pending on it, and the scheduler raises it in its own place *)
}
(** A process's pending request, filled in place by each access, and
    the credit of its current run.  The scheduler owns one per
    process. *)

val slot : unit -> slot
(** A fresh slot (a read of object 0, not awaiting). *)

val set_current : slot -> unit
(** Make [slot] the one the next access fills.  Called by the scheduler
    before it starts or resumes a process. *)

type request = { oid : Oid.t; prim : Primitive.t; tid : Tid.t option }
(** A pending request as a value, for queries that keep it
    ({!Scheduler.pending}). *)

type _ Effect.t +=
  | Step : Value.t Effect.t
        (** the one step effect: its request is in the current slot *)

val access : ?tid:Tid.t -> Oid.t -> Primitive.t -> Value.t
(** [access ?tid oid prim] performs one atomic step on [oid]: on the
    run's credit if any is left, else through the scheduler.  Must be
    called from code running under a {!Scheduler}.  [tid] attributes the
    step to a transaction in the access log. *)

(** {1 Convenience wrappers} *)

val read : ?tid:Tid.t -> Oid.t -> Value.t
val write : ?tid:Tid.t -> Oid.t -> Value.t -> unit
val cas : ?tid:Tid.t -> Oid.t -> expected:Value.t -> desired:Value.t -> bool
val fetch_add : ?tid:Tid.t -> Oid.t -> int -> int
val try_lock : ?tid:Tid.t -> pid:int -> Oid.t -> bool
val unlock : ?tid:Tid.t -> pid:int -> Oid.t -> unit

(** {1 Pre-boxed attribution}

    The [*_t] variants take the transaction attribution as an
    already-built option: a TM context allocates [Some tid] once at
    begin time and passes it on every step, where the [?tid] wrappers
    above box a fresh [Some] per call. *)

val access_t : tid:Tid.t option -> Oid.t -> Primitive.t -> Value.t
val read_t : tid:Tid.t option -> Oid.t -> Value.t
val write_t : tid:Tid.t option -> Oid.t -> Value.t -> unit

val cas_t :
  tid:Tid.t option -> Oid.t -> expected:Value.t -> desired:Value.t -> bool

val fetch_add_t : tid:Tid.t option -> Oid.t -> int -> int
val unlock_t : tid:Tid.t option -> pid:int -> Oid.t -> unit

(** {1 Awaits} *)

val await_t :
  tid:Tid.t option -> Oid.t -> Primitive.t -> until:(Value.t -> bool) -> Value.t
(** [await_t ~tid oid prim ~until] is the spin loop
    [let rec spin () = let r = access_t ~tid oid prim in
     if until r then r else spin ()] — the same steps, one per attempt —
    run by the scheduler: a failed attempt is logged as an ordinary step
    but does not resume the process, which stays pending on the same
    request.  A process the scheduler runs alone and whose failed attempt
    changed nothing therefore repeats that step until its budget ends,
    and the scheduler appends those repeats in bulk.  [until] is called
    outside the process and must be pure; an exception it raises is
    raised in the process at the await.  The request goes through the
    slot like any access's, marked [awaiting] with [until], and the
    effect is the same {!Step}.  With credit left, the process runs the
    same loop itself, calling [until] at the await, and hands over
    pending on the await when the credit is spent. *)

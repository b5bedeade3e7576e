(** Process-side interface to the simulated shared memory.

    A process is an OCaml function running under a {!Scheduler}'s effect
    handler.  Every base-object access writes its request into the
    running process's {!slot} and performs the constant {!Step} effect;
    the scheduler reads the slot, applies the primitive atomically, logs
    it, and resumes the process with the response.  A step in the paper's
    sense — one primitive plus the local computation up to the next one —
    is therefore executed atomically, exactly as in Section 3's model.

    {b The one-slot invariant.}  The slot an access writes is the one the
    scheduler made current with {!set_current} before it started or
    resumed the running process.  One global current slot is sound only
    while one process runs at a time, on one domain, and no process
    drives a scheduler from inside its own code: a nested scheduler would
    repoint the slot under the outer process, whose next access would be
    written into a slot its own scheduler never reads. *)

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
}
(** A process's pending request, filled in place by each access.  The
    scheduler owns one per process. *)

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
(** [access ?tid oid prim] performs one atomic step on [oid].  Must be
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
    effect is the same {!Step}. *)

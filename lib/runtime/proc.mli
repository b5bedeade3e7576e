(** Process-side interface to the simulated shared memory.

    A process is an OCaml function running under a {!Scheduler}'s effect
    handler.  Every base-object access performs the {!Step} effect; the
    scheduler applies the primitive atomically, logs it, and resumes the
    process with the response.  A step in the paper's sense — one
    primitive plus the local computation up to the next one — is therefore
    executed atomically, exactly as in Section 3's model. *)

open Tm_base

type request = { oid : Oid.t; prim : Primitive.t; tid : Tid.t option }

type _ Effect.t +=
  | Step : request -> Value.t Effect.t
  | Await : request * (Value.t -> bool) -> Value.t Effect.t
        (** see {!await_t} *)

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
    raised in the process at the await. *)

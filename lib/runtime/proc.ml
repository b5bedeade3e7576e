(* Process-side interface to the simulated shared memory.

   A process is an OCaml function running under the scheduler's effect
   handler.  Every base-object access writes its request into the running
   process's slot and performs the constant [Step] effect; the scheduler
   reads the slot, applies the primitive atomically to memory, logs it,
   and resumes the process with the response.  A step in the paper's
   sense is therefore: one primitive + the local computation up to the
   next primitive, executed atomically — exactly Section 3's model.

   The handoff allocates only the continuation [perform] captures: the
   request lives in a slot the scheduler owns, one per process, which it
   makes current before it starts or resumes that process. *)

open Tm_base

type slot = {
  mutable oid : Oid.t;
  mutable prim : Primitive.t;
  mutable tid : Tid.t option;
  mutable awaiting : bool;
  mutable until : Value.t -> bool;
}

type request = { oid : Oid.t; prim : Primitive.t; tid : Tid.t option }
type _ Effect.t += Step : Value.t Effect.t

let slot () : slot =
  { oid = Oid.of_int 0; prim = Primitive.Read; tid = None; awaiting = false;
    until = Fun.const false }

(* the running process's slot (see the interface for the invariant that
   makes one global sound) *)
let current = ref (slot ())
let set_current s = current := s

(* one step: fill the running process's slot, hand over to the scheduler *)
let access_t ~tid oid prim =
  let s = !current in
  s.oid <- oid;
  s.prim <- prim;
  s.tid <- tid;
  Effect.perform Step

(** [access ?tid oid prim] performs one atomic step on [oid].  Must be
    called from code running under a {!Scheduler}.  [tid] attributes the
    step to a transaction for the access log. *)
let access ?tid oid prim = access_t ~tid oid prim

(** Convenience wrappers. *)
let read ?tid oid = access ?tid oid Primitive.Read

let write ?tid oid v =
  ignore (access ?tid oid (Primitive.Write v))

let cas ?tid oid ~expected ~desired =
  Value.to_bool_exn (access ?tid oid (Primitive.Cas { expected; desired }))

let fetch_add ?tid oid n =
  Value.to_int_exn (access ?tid oid (Primitive.Fetch_add n))

let try_lock ?tid ~pid oid =
  Value.to_bool_exn (access ?tid oid (Primitive.Try_lock pid))

let unlock ?tid ~pid oid = ignore (access ?tid oid (Primitive.Unlock pid))

(* [*_t] variants take the transaction attribution as an already-built
   option: a TM context allocates [Some tid] once at begin time and
   passes it on every step, where the labelled-argument wrappers above
   box a fresh [Some] per call. *)

let read_t ~tid oid = access_t ~tid oid Primitive.Read
let write_t ~tid oid v = ignore (access_t ~tid oid (Primitive.Write v))

let cas_t ~tid oid ~expected ~desired =
  Value.to_bool_exn (access_t ~tid oid (Primitive.Cas { expected; desired }))

let fetch_add_t ~tid oid n =
  Value.to_int_exn (access_t ~tid oid (Primitive.Fetch_add n))

let unlock_t ~tid ~pid oid =
  ignore (access_t ~tid oid (Primitive.Unlock pid))

(* a spin loop as one step request: the scheduler re-issues the request
   until [until] accepts a response (see the interface) *)
let await_t ~tid oid prim ~until =
  let s = !current in
  s.oid <- oid;
  s.prim <- prim;
  s.tid <- tid;
  s.until <- until;
  s.awaiting <- true;
  Effect.perform Step

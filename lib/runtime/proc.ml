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
   makes current before it starts or resumes that process.  Within an
   atom that grants a process several steps, no other process can move
   in between, so the scheduler resumes it with the rest of the atom as
   credit in its slot: the process applies those steps itself and
   performs [Step] only when the credit is spent. *)

open Tm_base

type slot = {
  mutable oid : Oid.t;
  mutable prim : Primitive.t;
  mutable tid : Tid.t option;
  mutable awaiting : bool;
  mutable until : Value.t -> bool;
  mutable credit : int;
  mutable mem : Memory.t option;
  mutable pid : int;
  mutable raised : exn option;
}

type request = { oid : Oid.t; prim : Primitive.t; tid : Tid.t option }
type _ Effect.t += Step : Value.t Effect.t

let slot () : slot =
  { oid = Oid.of_int 0; prim = Primitive.Read; tid = None; awaiting = false;
    until = Fun.const false; credit = 0; mem = None; pid = 0; raised = None }

(* the running process's slot (see the interface for the invariant that
   makes one global sound) *)
let current = ref (slot ())
let set_current s = current := s

(* one handoff: fill the slot with the request, hand over to the scheduler *)
let handoff (s : slot) ~tid oid prim =
  s.oid <- oid;
  s.prim <- prim;
  s.tid <- tid;
  Effect.perform Step

let handoff_await (s : slot) ~tid oid prim until =
  s.until <- until;
  s.awaiting <- true;
  handoff s ~tid oid prim

(* one step taken on the credit, applied here as the scheduler would *)
let own_step (s : slot) ~tid oid prim =
  match s.mem with
  | Some mem ->
      s.credit <- s.credit - 1;
      Memory.apply mem ~pid:s.pid ?tid oid prim
  | None -> invalid_arg "Proc: credit without a memory"

(* one step: taken on the credit while it lasts, else handed over.  A
   primitive that raises is not taken: the process hands over pending on
   it, and the scheduler raises the exception in its own place, as if it
   had applied the request itself *)
let access_t ~tid oid prim =
  let s = !current in
  if s.credit > 0 then
    match own_step s ~tid oid prim with
    | r -> r
    | exception e ->
        s.raised <- Some e;
        handoff s ~tid oid prim
  else handoff s ~tid oid prim

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

(* The scheduler's run loop over an await, kept in the process while its
   credit lasts: a failed attempt is retried in place, and one that
   changed nothing repeats until the credit ends, appended in bulk
   exactly as the scheduler's fast-forward appends it. *)
let rec spin (s : slot) ~tid oid prim until =
  match own_step s ~tid oid prim with
  | exception e ->
      s.raised <- Some e;
      handoff_await s ~tid oid prim until
  | r ->
      if until r then r
      else if s.credit = 0 then handoff_await s ~tid oid prim until
      else
        match s.mem with
        | Some mem when Memory.repeat_last mem s.credit ->
            s.credit <- 0;
            handoff_await s ~tid oid prim until
        | _ -> spin s ~tid oid prim until

(* a spin loop as one step request: the scheduler re-issues the request
   until [until] accepts a response (see the interface) *)
let await_t ~tid oid prim ~until =
  let s = !current in
  if s.credit > 0 then spin s ~tid oid prim until
  else handoff_await s ~tid oid prim until

(** Shared memory: the base objects of the simulated asynchronous system,
    plus the access log.

    {!apply} is the only way to touch object state and corresponds to one
    atomic step of the paper's model.  Allocation is {e not} a step: TM
    implementations pre-allocate their shared representation at creation
    time (or allocate deterministically at begin time, e.g. per-transaction
    status words), modelling objects that simply exist in the initial
    configuration.

    A memory has one hook slot, the fault hook, consulted before each
    step ({!set_fault_hook}).  Telemetry needs no hook: a step bumps its
    counters directly, the TM's own per-kind array too once
    {!count_prims} has given it.  The flight recorder reads the access
    log ({!log}) as a window. *)

type t

type fault = Spurious_fail
(** The one fault a memory can inject into a step: an RMW-class primitive
    (CAS / SC / try-lock) responds failure without touching object state —
    an outcome real hardware permits at any time. *)

type fault_hook =
  pid:int -> tid:Tid.t option -> step:int -> Oid.t -> Primitive.t ->
  fault option

val create : unit -> t

val alloc : t -> name:string -> Value.t -> Oid.t
(** Allocate a fresh base object with the given initial value.  [name]
    appears in logs and figures and must be unique.
    @raise Invalid_argument on a duplicate name. *)

val find : t -> string -> Oid.t option
val find_exn : t -> string -> Oid.t

val name_of : t -> Oid.t -> string
(** @raise Invalid_argument on an unknown oid. *)

val n_objects : t -> int

val apply : t -> pid:int -> ?tid:Tid.t -> Oid.t -> Primitive.t -> Value.t
(** One atomic step: apply the primitive on behalf of process [pid]
    (attributed to [tid] if given), log it, return the response.
    [mem_steps_total], [mem_prim_total] and [pid]'s
    [sched_pid_steps_total] advance by one, and so does the primitive's
    cell of the {!count_prims} array, if one was given. *)

val repeat_last : t -> int -> bool
(** [repeat_last t n] logs the last step [n] more times in one bulk
    append and answers true, when that equals applying it [n] more times:
    the step reported no change, so it is a fixed point of its primitive,
    and no fault hook is installed to answer a repeat differently.
    Otherwise (or on an empty log) it does nothing and answers false.
    The append costs O(chunks), not O(n): each log column shares one
    filled chunk between its whole-chunk slots ({!Intvec.push_n}).
    [mem_steps_total], [mem_prim_total], the process's
    [sched_pid_steps_total] and the {!count_prims} cell advance by [n].
    The caller vouches that the repeats are the
    steps its process would take next.
    @raise Invalid_argument if [n < 0]. *)

val peek : t -> Oid.t -> Value.t
(** Debugging read — not a step, not logged. *)

val log : t -> Access_log.t
val step_count : t -> int

val count_prims : t -> Tm_obs.Metrics.counter array -> unit
(** [count_prims t counters]: every later step of [t] also bumps
    [counters.(Primitive.kind_index prim)] ({!Primitive.kind_index}), by
    one per step and by [n] per {!repeat_last}; replaces any earlier
    array.  The transactional API layer gives each world its TM's
    [tm_mem_prim_total] cells this way. *)

val set_fault_hook : t -> fault_hook -> unit
(** Install the fault-injection hook (replacing any previous one).  It is
    consulted before each primitive is applied, with the step index the
    primitive is about to take; answering [Some Spurious_fail] on an
    RMW-class primitive makes that step respond failure with unchanged
    state.  The answer is ignored for primitives that cannot fail
    (reads, writes, fetch-add, unlock, LL).  Faulted steps are logged and
    counted normally (plus [mem_spurious_faults_total]), so a faulted run
    replays bit-identically under the same hook. *)

val poison : t -> int -> unit
(** Doomed-transaction poison: [pid]'s current transaction is forced to
    abort at its next transactional operation (consumed by the
    transactional API layer via {!take_poison}). *)

val take_poison : t -> int -> bool
(** Consume [pid]'s poison flag; true iff it was set. *)

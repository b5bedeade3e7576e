(** The access log: every step of an execution, in order — the executable
    counterpart of the paper's "an execution alpha is a sequence of
    steps".  Contention and disjoint-access-parallelism checkers run on
    it.

    Backed by chunked struct-of-arrays columns (appending never copies,
    ~one word per field per step) plus two O(1) per-process heads: each
    process's last step and its step count.  Readers take a {!window} of
    the log and use the per-field reads; {!get} materializes one step. *)

type entry = {
  index : int;  (** global step number, 0-based *)
  pid : int;  (** process that took the step *)
  tid : Tid.t option;
      (** transaction the step is attributed to, if any: steps taken inside
          the TM's begin/read/write/commit routines carry the id *)
  oid : Oid.t;  (** base object accessed *)
  prim : Primitive.t;  (** primitive applied *)
  response : Value.t;  (** response returned by the atomic step *)
  changed : bool;  (** whether the object state actually changed *)
}

type t

val create : unit -> t

val record :
  t ->
  pid:int ->
  tid:Tid.t option ->
  oid:Oid.t ->
  prim:Primitive.t ->
  response:Value.t ->
  changed:bool ->
  unit
(** Append one step.  The step's index is [length] before the call.
    @raise Invalid_argument on a negative pid. *)

val repeat_last : t -> int -> unit
(** [repeat_last t n] appends [n] copies of the last step: the same
    columns and per-process heads as [n] {!record}s of its fields, in
    O(chunks) ({!Intvec.push_n} shares one filled chunk between the
    whole-chunk slots of each column).
    @raise Invalid_argument if the log is empty or [n < 0]. *)

val length : t -> int

(** {2 Random access}

    All indexed reads check bounds and raise [Invalid_argument] outside
    [0..length-1]. *)

val get : t -> int -> entry
(** Materialize the step at an index as an entry record. *)

val pid_at : t -> int -> int
val tid_at : t -> int -> Tid.t option

val tid_int_at : t -> int -> int
(** Allocation-free transaction read: [Tid.to_int], or -1 when the step
    is unattributed. *)

val oid_at : t -> int -> Oid.t
val prim_at : t -> int -> Primitive.t
val response_at : t -> int -> Value.t
val changed_at : t -> int -> bool

val iter : t -> f:(entry -> unit) -> unit

(** {2 Windows}

    The one form in which detectors read a recording: consecutive steps of
    a log, read in place.  The step at window offset [k] is at log
    position [pos + k] and has global index [first + k]; the two differ
    for a flight artifact that declared dropped steps. *)

type window = private {
  log : t;
  pos : int;  (** log position of the first step *)
  len : int;  (** number of steps *)
  first : int;  (** global index of the first step *)
}

val window : ?first:int -> t -> pos:int -> len:int -> window
(** The [len] steps starting at [pos]; [first] defaults to [pos].
    @raise Invalid_argument unless [0 <= pos], [0 <= len] and
    [pos + len <= length]. *)

val whole : t -> window
(** Every step recorded so far, indexed from 0. *)

val step : window -> int -> entry
(** The step at a window offset, indexed by its global index.
    @raise Invalid_argument outside [0..len-1]. *)

(** {2 Per-process heads}

    Maintained by {!record} in O(1) per step. *)

val last_index_by_pid : t -> int -> int
(** Index of the most recent step by a process, -1 if none. *)

val pid_step_count : t -> int -> int
(** Steps taken by a process so far. *)

val last_by_pid : t -> int -> entry option
(** Most recent step taken by a process, if any. *)

val pp_entry :
  name_of:(Oid.t -> string) -> Format.formatter -> entry -> unit

(** A chunked, append-only vector of unboxed ints.

    Fixed-size flat chunks behind a growable spine: appends never copy
    old elements, so amortized allocation is one word per element (a
    list cons costs three), and reads are O(1).  The hot-path work-pool
    structure the step log, schedule sessions and cursor path buffers
    are built on.

    A full chunk is immutable: every writer appends, so nothing writes
    to a chunk once it is full.  {!push_n} rests on that to share one
    chunk between many spine slots. *)

type t

val create : ?chunk_bits:int -> unit -> t
(** [chunk_bits] (default 7, i.e. 128-element chunks — a compromise
    between amortized overhead and the allocation floor a short-lived
    vector pays for its first chunk) must lie in 2..20.
    @raise Invalid_argument otherwise. *)

val length : t -> int

val prefix : t -> int -> t
(** [prefix t n] is an independent copy of the first [n] elements: later
    pushes on either vector are not seen by the other.
    @raise Invalid_argument unless [0 <= n <= length t]. *)

val push : t -> int -> unit

val push_n : t -> int -> int -> unit
(** [push_n t v n] appends [n] copies of [v]: the same vector as [n]
    {!push}es, in O(chunks) time and allocation.  The open chunk is
    filled in place; the whole chunks after it share one chunk of [v]s,
    allocated once per call; the remainder opens a fresh chunk.
    @raise Invalid_argument if [n < 0]. *)

val get : t -> int -> int
(** @raise Invalid_argument out of bounds. *)

val unsafe_get : t -> int -> int
(** Unchecked read, for callers that already hold a valid index. *)

val iter : t -> (int -> unit) -> unit
val fold : t -> init:'a -> f:('a -> int -> 'a) -> 'a
val to_list : t -> int list

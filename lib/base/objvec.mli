(** A chunked, append-only vector of boxed values — {!Intvec}'s
    polymorphic sibling.  Appends never copy old elements (amortized one
    word per element versus three for a list cons); reads are O(1).
    Backs the access log's boxed columns and the history recorder's
    event store.

    As in {!Intvec}, a full chunk is immutable, which is what lets
    {!push_n} share one chunk between many spine slots. *)

type 'a t

val create : ?chunk_bits:int -> dummy:'a -> unit -> 'a t
(** [dummy] fills unused chunk slots and is never returned.
    [chunk_bits] (default 7, i.e. 128-element chunks) must lie in 2..20.
    @raise Invalid_argument otherwise. *)

val length : 'a t -> int
val push : 'a t -> 'a -> unit

val push_n : 'a t -> 'a -> int -> unit
(** [push_n t v n] appends [n] copies of [v]: the same vector as [n]
    {!push}es, in O(chunks) time and allocation.  The open chunk is
    filled in place; the whole chunks after it share one chunk of [v]s,
    allocated once per call; the remainder opens a fresh chunk.
    @raise Invalid_argument if [n < 0]. *)

val get : 'a t -> int -> 'a
(** @raise Invalid_argument out of bounds. *)

val unsafe_get : 'a t -> int -> 'a
(** Unchecked read, for callers that already hold a valid index. *)

val iter : 'a t -> ('a -> unit) -> unit
val to_list : 'a t -> 'a list

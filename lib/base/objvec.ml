(* A chunked, append-only vector of boxed values — Intvec's polymorphic
   sibling.  Same spine discipline: flat chunks, so appends past chunk 0
   never copy old elements and amortized allocation is one word per
   element versus three for a list cons.  The access log's primitive and
   response columns and the history recorder's payload columns are built
   on this.  [dummy] fills unused chunk slots (it is never returned).  As
   in Intvec, chunk 0 opens small and grows by copying up to the full
   chunk size, every later chunk opens at full size, and a full chunk is
   never written again, so [push_n] may install one chunk in many spine
   slots. *)

type 'a t = {
  chunk_bits : int;
  dummy : 'a;
  mutable spine : 'a array array;  (* chunk index -> chunk *)
  mutable chunks : int;  (* chunks in use *)
  mutable len : int;
  mutable room : int;  (* slots in the chunks in use *)
}

(* Chunk 0's first size; it grows fourfold up to the full chunk. *)
let first_slots = 32

let create ?(chunk_bits = 7) ~dummy () =
  if chunk_bits < 2 || chunk_bits > 20 then
    invalid_arg "Objvec.create: chunk_bits out of range";
  { chunk_bits; dummy; spine = [||]; chunks = 0; len = 0; room = 0 }

let length t = t.len

(* The size chunk 0 takes to hold [n] elements, as Intvec's. *)
let first_cap t n =
  let size = 1 lsl t.chunk_bits in
  let rec rung c = if c >= n || c >= size then min c size else rung (4 * c) in
  rung first_slots

(* Room for [n] chunks in the spine, growing it geometrically. *)
let reserve t n =
  if n > Array.length t.spine then begin
    let spine = Array.make (max n (2 * Array.length t.spine)) [||] in
    Array.blit t.spine 0 spine 0 t.chunks;
    t.spine <- spine
  end

(* Open chunk [t.chunks] with room for [n] more elements. *)
let add_chunk t n =
  let c = t.chunks in
  let cap = if c = 0 then first_cap t n else 1 lsl t.chunk_bits in
  reserve t (c + 1);
  t.spine.(c) <- Array.make cap t.dummy;
  t.chunks <- c + 1;
  t.room <- t.room + cap

(* Copy chunk 0, the only chunk in use, into one that holds [n]
   elements. *)
let grow_first t n =
  let chunk = Array.make (first_cap t n) t.dummy in
  Array.blit t.spine.(0) 0 chunk 0 t.len;
  t.spine.(0) <- chunk;
  t.room <- Array.length chunk

let make_room t =
  if t.chunks = 1 && t.room < 1 lsl t.chunk_bits then grow_first t (t.len + 1)
  else add_chunk t 1

let push t v =
  if t.len = t.room then make_room t;
  let bits = t.chunk_bits in
  t.spine.(t.len lsr bits).(t.len land ((1 lsl bits) - 1)) <- v;
  t.len <- t.len + 1

(* [n] copies of [v] in O(chunks), as Intvec's: chunk 0 grown first, the
   open chunk in place, one shared chunk of [v]s for the whole chunks, a
   fresh chunk for the rest *)
let push_n t v n =
  if n < 0 then invalid_arg "Objvec.push_n: negative count";
  let bits = t.chunk_bits in
  let size = 1 lsl bits in
  if t.chunks = 1 && t.room < size && t.len + n > t.room then
    grow_first t (t.len + n);
  let i = t.len land (size - 1) in
  let head = if i = 0 then 0 else min n (size - i) in
  if head > 0 then Array.fill t.spine.(t.len lsr bits) i head v;
  let whole = (n - head) lsr bits and tail = (n - head) land (size - 1) in
  if whole > 0 then begin
    reserve t (t.chunks + whole + 1);
    Array.fill t.spine t.chunks whole (Array.make size v);
    t.chunks <- t.chunks + whole;
    t.room <- t.room + (whole * size)
  end;
  if tail > 0 then begin
    add_chunk t tail;
    Array.fill t.spine.(t.chunks - 1) 0 tail v
  end;
  t.len <- t.len + n

(** Unchecked read — callers that already hold a valid index. *)
let unsafe_get t i =
  Array.unsafe_get
    (Array.unsafe_get t.spine (i lsr t.chunk_bits))
    (i land ((1 lsl t.chunk_bits) - 1))

let get t i =
  if i < 0 || i >= t.len then
    invalid_arg
      (Printf.sprintf "Objvec.get: index %d out of bounds 0..%d" i (t.len - 1));
  unsafe_get t i

let iter t f =
  for i = 0 to t.len - 1 do
    f (unsafe_get t i)
  done

let to_list t =
  let rec go i acc = if i < 0 then acc else go (i - 1) (unsafe_get t i :: acc) in
  go (t.len - 1) []

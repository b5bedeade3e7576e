(* A chunked, append-only vector of unboxed ints — the preallocated work
   pool the hot path appends to instead of consing.

   Chunks are flat [int array]s linked through a growable spine, so an
   append past chunk 0 never copies old elements: amortized allocation
   is one word per element (plus a chunk header every [chunk] elements),
   versus the three words a list cons costs, and reads are O(1).  The
   step log, the schedule session's runs and the cursor path buffer are
   all built on this.

   Chunk 0 opens small and grows by copying until it reaches the full
   chunk size, so a short-lived vector (a replayed explorer world holds a
   dozen steps) allocates in proportion to what it holds.  Every later
   chunk opens at full size, so the index math is the same for all of
   them: element [i] lives in chunk [i lsr chunk_bits] at slot
   [i land (chunk - 1)].

   A full chunk is never written again: every writer appends at [len],
   which lies in the open (last, partial) chunk or a fresh one.  That is
   what lets [push_n] install one chunk in many spine slots. *)

type t = {
  chunk_bits : int;
  mutable spine : int array array;  (* chunk index -> chunk *)
  mutable chunks : int;  (* chunks in use *)
  mutable len : int;
  mutable room : int;  (* slots in the chunks in use: [len] reaches it
                          when chunk 0 must grow or a chunk must open *)
}

(* 128-element chunks: big enough that the per-chunk header is noise
   (~1.01 words/element amortized) *)
let default_bits = 7

(* Chunk 0's first size; it grows fourfold up to the full chunk. *)
let first_slots = 32

let create ?(chunk_bits = default_bits) () =
  if chunk_bits < 2 || chunk_bits > 20 then
    invalid_arg "Intvec.create: chunk_bits out of range";
  { chunk_bits; spine = [||]; chunks = 0; len = 0; room = 0 }

let length t = t.len

(* The size chunk 0 takes to hold [n] elements: the first rung of
   32, 128, 512, ... that reaches [n], capped at the full chunk. *)
let first_cap t n =
  let size = 1 lsl t.chunk_bits in
  let rec rung c = if c >= n || c >= size then min c size else rung (4 * c) in
  rung first_slots

(* An independent copy of the first [n] elements: fresh chunk arrays, so
   neither vector observes the other's later pushes.  Chunks past the
   prefix are not copied, and a prefix within chunk 0 copies it at the
   size [n] pushes would have grown it to. *)
let prefix t n =
  if n < 0 || n > t.len then
    invalid_arg (Printf.sprintf "Intvec.prefix: %d out of bounds 0..%d" n t.len);
  let size = 1 lsl t.chunk_bits in
  let chunks = (n + size - 1) lsr t.chunk_bits in
  let cap = if chunks = 1 then first_cap t n else size in
  let spine = Array.make (max 1 chunks) [||] in
  for c = 0 to chunks - 1 do
    let chunk = Array.make cap 0 in
    Array.blit t.spine.(c) 0 chunk 0 (min size (n - (c * size)));
    spine.(c) <- chunk
  done;
  { chunk_bits = t.chunk_bits; spine; chunks; len = n; room = chunks * cap }

(* Room for [n] chunks in the spine, growing it geometrically.  Off the
   per-element path: an append reaches it once per chunk. *)
let reserve t n =
  if n > Array.length t.spine then begin
    let spine = Array.make (max n (2 * Array.length t.spine)) [||] in
    Array.blit t.spine 0 spine 0 t.chunks;
    t.spine <- spine
  end

(* Open chunk [t.chunks] with room for [n] more elements: chunk 0 at the
   rung that holds them, any later chunk at full size. *)
let add_chunk t n =
  let c = t.chunks in
  let cap = if c = 0 then first_cap t n else 1 lsl t.chunk_bits in
  reserve t (c + 1);
  t.spine.(c) <- Array.make cap 0;
  t.chunks <- c + 1;
  t.room <- t.room + cap

(* Copy chunk 0, the only chunk in use, into one that holds [n]
   elements. *)
let grow_first t n =
  let chunk = Array.make (first_cap t n) 0 in
  Array.blit t.spine.(0) 0 chunk 0 t.len;
  t.spine.(0) <- chunk;
  t.room <- Array.length chunk

(* [len] has reached [room]: grow chunk 0 while it is short of a full
   chunk, else open the next one. *)
let make_room t =
  if t.chunks = 1 && t.room < 1 lsl t.chunk_bits then grow_first t (t.len + 1)
  else add_chunk t 1

let push t (v : int) =
  if t.len = t.room then make_room t;
  let bits = t.chunk_bits in
  t.spine.(t.len lsr bits).(t.len land ((1 lsl bits) - 1)) <- v;
  t.len <- t.len + 1

(* [n] copies of [v] in O(chunks): chunk 0 first grows to hold what it
   will, the open chunk is filled in place, every whole chunk after it
   is one chunk of [v]s allocated for this call and shared by their
   spine slots, and what is left opens a fresh chunk of its own, since
   that one is written again. *)
let push_n t (v : int) n =
  if n < 0 then invalid_arg "Intvec.push_n: negative count";
  let bits = t.chunk_bits in
  let size = 1 lsl bits in
  if t.chunks = 1 && t.room < size && t.len + n > t.room then
    grow_first t (t.len + n);
  let i = t.len land (size - 1) in
  let head = if i = 0 then 0 else min n (size - i) in
  if head > 0 then Array.fill t.spine.(t.len lsr bits) i head v;
  let whole = (n - head) lsr bits and tail = (n - head) land (size - 1) in
  if whole > 0 then begin
    (* room for the chunk after them too *)
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

let get t i =
  if i < 0 || i >= t.len then
    invalid_arg (Printf.sprintf "Intvec.get: index %d out of bounds 0..%d" i (t.len - 1));
  t.spine.(i lsr t.chunk_bits).(i land ((1 lsl t.chunk_bits) - 1))

(** Unchecked read — callers that already hold a valid index. *)
let unsafe_get t i =
  Array.unsafe_get
    (Array.unsafe_get t.spine (i lsr t.chunk_bits))
    (i land ((1 lsl t.chunk_bits) - 1))

let iter t f =
  for i = 0 to t.len - 1 do
    f (unsafe_get t i)
  done

let fold t ~init ~f =
  let acc = ref init in
  for i = 0 to t.len - 1 do
    acc := f !acc (unsafe_get t i)
  done;
  !acc

let to_list t =
  let rec go i acc = if i < 0 then acc else go (i - 1) (unsafe_get t i :: acc) in
  go (t.len - 1) []

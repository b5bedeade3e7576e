(* A chunked, append-only vector of unboxed ints — the preallocated work
   pool the hot path appends to instead of consing.

   Chunks are fixed-size flat [int array]s linked through a growable
   spine, so an append never copies old elements: amortized allocation
   is one word per element (plus a chunk header every [chunk] elements),
   versus the three words a list cons costs, and reads are O(1).  The
   step log, the schedule session's per-atom step counts and the cursor
   path buffer are all built on this.

   A full chunk is never written again: every writer appends at [len],
   which lies in the open (last, partial) chunk or a fresh one.  That is
   what lets [push_n] install one chunk in many spine slots. *)

type t = {
  chunk_bits : int;
  mutable spine : int array array;  (* chunk index -> chunk *)
  mutable chunks : int;  (* chunks in use *)
  mutable len : int;
}

(* 128-element chunks: big enough that the per-chunk header is noise
   (~1.01 words/element amortized), small enough that the short-lived
   logs of segmented soak runs and explorer nodes don't pay a multi-KB
   allocation floor per instance. *)
let default_bits = 7

let create ?(chunk_bits = default_bits) () =
  if chunk_bits < 2 || chunk_bits > 20 then
    invalid_arg "Intvec.create: chunk_bits out of range";
  { chunk_bits; spine = [||]; chunks = 0; len = 0 }

let length t = t.len

(* An independent copy of the first [n] elements: fresh chunk arrays, so
   neither vector observes the other's later pushes.  Chunks past the
   prefix are not copied. *)
let prefix t n =
  if n < 0 || n > t.len then
    invalid_arg (Printf.sprintf "Intvec.prefix: %d out of bounds 0..%d" n t.len);
  let size = 1 lsl t.chunk_bits in
  let chunks = (n + size - 1) lsr t.chunk_bits in
  let spine = Array.make (max 4 chunks) [||] in
  for c = 0 to chunks - 1 do
    let chunk = Array.make size 0 in
    Array.blit t.spine.(c) 0 chunk 0 (min size (n - (c * size)));
    spine.(c) <- chunk
  done;
  { chunk_bits = t.chunk_bits; spine; chunks; len = n }

(* Room for [n] chunks in the spine, growing it geometrically.  Off the
   per-element path: an append reaches it once per chunk. *)
let reserve t n =
  if n > Array.length t.spine then begin
    let spine = Array.make (max n (max 4 (2 * Array.length t.spine))) [||] in
    Array.blit t.spine 0 spine 0 t.chunks;
    t.spine <- spine
  end

(* Open chunk [c] (= [t.chunks]). *)
let add_chunk t c =
  reserve t (c + 1);
  t.spine.(c) <- Array.make (1 lsl t.chunk_bits) 0;
  t.chunks <- t.chunks + 1

let push t (v : int) =
  let bits = t.chunk_bits in
  let mask = (1 lsl bits) - 1 in
  let i = t.len land mask in
  let c = t.len lsr bits in
  if c = t.chunks then add_chunk t c;
  t.spine.(c).(i) <- v;
  t.len <- t.len + 1

(* [n] copies of [v] in O(chunks): the open chunk is filled in place,
   every whole chunk after it is one chunk of [v]s allocated for this
   call and shared by their spine slots, and what is left opens a fresh
   chunk of its own, since that one is written again. *)
let push_n t (v : int) n =
  if n < 0 then invalid_arg "Intvec.push_n: negative count";
  let bits = t.chunk_bits in
  let size = 1 lsl bits in
  let i = t.len land (size - 1) in
  let head = if i = 0 then 0 else min n (size - i) in
  if head > 0 then Array.fill t.spine.(t.len lsr bits) i head v;
  let whole = (n - head) lsr bits and tail = (n - head) land (size - 1) in
  if whole > 0 then begin
    (* room for the chunk after them too *)
    reserve t (t.chunks + whole + 1);
    Array.fill t.spine t.chunks whole (Array.make size v);
    t.chunks <- t.chunks + whole
  end;
  if tail > 0 then begin
    add_chunk t t.chunks;
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

(* A chunked, append-only vector of unboxed ints — the preallocated work
   pool the hot path appends to instead of consing.

   Chunks are fixed-size flat [int array]s linked through a growable
   spine, so an append never copies old elements: amortized allocation
   is one word per element (plus a chunk header every [chunk] elements),
   versus the three words a list cons costs, and reads are O(1).  The
   step log, the schedule session's per-atom step counts and the cursor
   path buffer are all built on this. *)

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
   neither vector observes the other's later pushes or sets.  Chunks past
   the prefix are not copied. *)
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

(* Open chunk [c] (= [t.chunks]), growing the spine geometrically if
   full.  Off the per-element path: an append reaches it once per chunk. *)
let add_chunk t c =
  if c = Array.length t.spine then begin
    let cap = max 4 (2 * Array.length t.spine) in
    let spine = Array.make cap [||] in
    Array.blit t.spine 0 spine 0 t.chunks;
    t.spine <- spine
  end;
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

(* [n] copies of [v], one [Array.fill] per chunk they touch *)
let push_n t (v : int) n =
  if n < 0 then invalid_arg "Intvec.push_n: negative count";
  let size = 1 lsl t.chunk_bits in
  let left = ref n in
  while !left > 0 do
    let i = t.len land (size - 1) in
    let c = t.len lsr t.chunk_bits in
    if c = t.chunks then add_chunk t c;
    let k = min !left (size - i) in
    Array.fill t.spine.(c) i k v;
    t.len <- t.len + k;
    left := !left - k
  done

let get t i =
  if i < 0 || i >= t.len then
    invalid_arg (Printf.sprintf "Intvec.get: index %d out of bounds 0..%d" i (t.len - 1));
  t.spine.(i lsr t.chunk_bits).(i land ((1 lsl t.chunk_bits) - 1))

(** Unchecked read — callers that already hold a valid index. *)
let unsafe_get t i =
  Array.unsafe_get
    (Array.unsafe_get t.spine (i lsr t.chunk_bits))
    (i land ((1 lsl t.chunk_bits) - 1))

let set t i (v : int) =
  if i < 0 || i >= t.len then
    invalid_arg (Printf.sprintf "Intvec.set: index %d out of bounds 0..%d" i (t.len - 1));
  t.spine.(i lsr t.chunk_bits).(i land ((1 lsl t.chunk_bits) - 1)) <- v

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

let clear t = t.len <- 0

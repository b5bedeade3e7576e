(* A chunked, append-only vector of boxed values — Intvec's polymorphic
   sibling.  Same spine discipline: fixed-size flat chunks, so appends
   never copy old elements and amortized allocation is one word per
   element versus three for a list cons.  The access log's primitive and
   response columns and the history recorder's event store are built on
   this.  [dummy] fills unused chunk slots (it is never returned). *)

type 'a t = {
  chunk_bits : int;
  dummy : 'a;
  mutable spine : 'a array array;  (* chunk index -> chunk *)
  mutable chunks : int;  (* chunks in use *)
  mutable len : int;
}

let create ?(chunk_bits = 7) ~dummy () =
  if chunk_bits < 2 || chunk_bits > 20 then
    invalid_arg "Objvec.create: chunk_bits out of range";
  { chunk_bits; dummy; spine = [||]; chunks = 0; len = 0 }

let length t = t.len

(* Open chunk [c] (= [t.chunks]), growing the spine if full. *)
let add_chunk t c =
  if c = Array.length t.spine then begin
    let cap = max 4 (2 * Array.length t.spine) in
    let spine = Array.make cap [||] in
    Array.blit t.spine 0 spine 0 t.chunks;
    t.spine <- spine
  end;
  t.spine.(c) <- Array.make (1 lsl t.chunk_bits) t.dummy;
  t.chunks <- t.chunks + 1

let push t v =
  let bits = t.chunk_bits in
  let i = t.len land ((1 lsl bits) - 1) in
  let c = t.len lsr bits in
  if c = t.chunks then add_chunk t c;
  t.spine.(c).(i) <- v;
  t.len <- t.len + 1

(* [n] copies of [v], one [Array.fill] per chunk they touch *)
let push_n t v n =
  if n < 0 then invalid_arg "Objvec.push_n: negative count";
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

let fold t ~init ~f =
  let acc = ref init in
  for i = 0 to t.len - 1 do
    acc := f !acc (unsafe_get t i)
  done;
  !acc

let to_list t =
  let rec go i acc = if i < 0 then acc else go (i - 1) (unsafe_get t i :: acc) in
  go (t.len - 1) []

(** Reset length to zero; chunks are retained for reuse, so the dropped
    elements stay reachable until overwritten. *)
let clear t = t.len <- 0

(* The access log: every step of an execution, in order.  This is the
   executable counterpart of the paper's "execution alpha is a sequence of
   steps"; contention and disjoint-access-parallelism checkers run on it.

   Layout: struct-of-arrays over chunked columns ({!Intvec} for the int
   fields, {!Objvec} for the two boxed columns),
   so recording a step appends ~5 words across columns instead of consing
   an 8-word record onto a list spine — and never copies on growth.

   Beside the columns, two O(1) per-process heads are kept at record
   time: each process's last step index and its step count.  They serve
   the stall attribution ([last_by_pid]) and the per-process step
   totals; every other reader scans the data columns. *)

type entry = {
  index : int;  (** global step number, 0-based *)
  pid : int;  (** process that took the step *)
  tid : Tid.t option;
      (** transaction the step is attributed to, if any (steps of the TM's
          begin/read/write/commit routines carry the transaction id) *)
  oid : Oid.t;  (** base object accessed *)
  prim : Primitive.t;  (** primitive applied *)
  response : Value.t;  (** response returned by the atomic step *)
  changed : bool;  (** whether the object state actually changed *)
}

type t = {
  pcs : Intvec.t;  (* (pid lsl 1) lor changed *)
  tids : Intvec.t;  (* Tid.to_int, or -1 when unattributed *)
  oids : Intvec.t;
  prims : Primitive.t Objvec.t;
  resps : Value.t Objvec.t;
  mutable pid_last : int array;  (* pid -> last step index, -1 *)
  mutable pid_count : int array;  (* pid -> steps taken *)
  mutable count : int;
}

let create () =
  {
    pcs = Intvec.create ();
    tids = Intvec.create ();
    oids = Intvec.create ();
    prims = Objvec.create ~chunk_bits:7 ~dummy:Primitive.Read ();
    resps = Objvec.create ~chunk_bits:7 ~dummy:Value.unit ();
    pid_last = [||];
    pid_count = [||];
    count = 0;
  }

(* Grow both head arrays so [pid] is addressable; fresh slots read -1 and
   0.  Off the per-step path: the heads are written in place otherwise. *)
let grow_heads t pid =
  let n = Array.length t.pid_last in
  let cap = max 16 (max (pid + 1) (2 * n)) in
  let last = Array.make cap (-1) and count = Array.make cap 0 in
  Array.blit t.pid_last 0 last 0 n;
  Array.blit t.pid_count 0 count 0 n;
  t.pid_last <- last;
  t.pid_count <- count

let length t = t.count

let record t ~pid ~tid ~oid ~prim ~response ~changed =
  if pid < 0 then invalid_arg "Access_log.record: negative pid";
  let i = t.count in
  Intvec.push t.pcs ((pid lsl 1) lor Bool.to_int changed);
  let tc = match tid with None -> -1 | Some tid -> Tid.to_int tid in
  Intvec.push t.tids tc;
  Intvec.push t.oids (Oid.to_int oid);
  Objvec.push t.prims prim;
  Objvec.push t.resps response;
  if pid >= Array.length t.pid_last then grow_heads t pid;
  Array.unsafe_set t.pid_last pid i;
  Array.unsafe_set t.pid_count pid (Array.unsafe_get t.pid_count pid + 1);
  t.count <- i + 1

let check t i who =
  if i < 0 || i >= t.count then
    invalid_arg
      (Printf.sprintf "Access_log.%s: index %d out of bounds 0..%d" who i
         (t.count - 1))

(* [n] copies of the last step, column by column: the log [n] {!record}s
   of that step's fields would leave *)
let repeat_last t n =
  if n < 0 then invalid_arg "Access_log.repeat_last: negative count";
  let last = t.count - 1 in
  check t last "repeat_last";
  let pc = Intvec.unsafe_get t.pcs last in
  Intvec.push_n t.pcs pc n;
  Intvec.push_n t.tids (Intvec.unsafe_get t.tids last) n;
  Intvec.push_n t.oids (Intvec.unsafe_get t.oids last) n;
  Objvec.push_n t.prims (Objvec.unsafe_get t.prims last) n;
  Objvec.push_n t.resps (Objvec.unsafe_get t.resps last) n;
  let pid = pc lsr 1 in
  t.pid_last.(pid) <- last + n;
  t.pid_count.(pid) <- t.pid_count.(pid) + n;
  t.count <- t.count + n

(* Per-field reads.  Bounds-checked; the chunk walk itself is unchecked
   because the check above already established validity. *)

let pid_at t i =
  check t i "pid_at";
  Intvec.unsafe_get t.pcs i lsr 1

let changed_at t i =
  check t i "changed_at";
  Intvec.unsafe_get t.pcs i land 1 = 1

let tid_int_at t i =
  check t i "tid_int_at";
  Intvec.unsafe_get t.tids i

let tid_at t i =
  let tc = tid_int_at t i in
  if tc < 0 then None else Some (Tid.v tc)

let oid_at t i : Oid.t =
  check t i "oid_at";
  Oid.of_int (Intvec.unsafe_get t.oids i)

let prim_at t i =
  check t i "prim_at";
  Objvec.unsafe_get t.prims i

let response_at t i =
  check t i "response_at";
  Objvec.unsafe_get t.resps i

(* Per-process heads: O(1) *)

let last_index_by_pid t pid =
  if pid >= 0 && pid < Array.length t.pid_last then t.pid_last.(pid) else -1

let pid_step_count t pid =
  if pid >= 0 && pid < Array.length t.pid_count then t.pid_count.(pid) else 0

(* Unchecked materialization of the step at position [i], numbered
   [index]. *)
let unsafe_get t i ~index =
  let pc = Intvec.unsafe_get t.pcs i in
  let tc = Intvec.unsafe_get t.tids i in
  {
    index;
    pid = pc lsr 1;
    tid = (if tc < 0 then None else Some (Tid.v tc));
    oid = Oid.of_int (Intvec.unsafe_get t.oids i);
    prim = Objvec.unsafe_get t.prims i;
    response = Objvec.unsafe_get t.resps i;
    changed = pc land 1 = 1;
  }

let get t i =
  check t i "get";
  unsafe_get t i ~index:i

let iter t ~f =
  for i = 0 to t.count - 1 do
    f (unsafe_get t i ~index:i)
  done

(* A window: [len] consecutive steps from log position [pos], the first
   of which has global index [first]. *)
type window = { log : t; pos : int; len : int; first : int }

let window ?first t ~pos ~len =
  if pos < 0 || len < 0 || pos > t.count - len then
    invalid_arg
      (Printf.sprintf
         "Access_log.window: pos %d len %d out of bounds (length %d)" pos len
         t.count);
  { log = t; pos; len; first = Option.value first ~default:pos }

let whole t = { log = t; pos = 0; len = t.count; first = 0 }

let step w k =
  if k < 0 || k >= w.len then
    invalid_arg
      (Printf.sprintf "Access_log.step: offset %d out of bounds 0..%d" k
         (w.len - 1));
  unsafe_get w.log (w.pos + k) ~index:(w.first + k)

(** Most recent step taken by process [pid], if any — O(1) via the
    per-process head.  Used to attribute a budget-exhausted stall to the
    exact step a process was wedged on. *)
let last_by_pid t pid =
  let i = last_index_by_pid t pid in
  if i < 0 then None else Some (unsafe_get t i ~index:i)

let pp_entry ~name_of ppf e =
  let txn =
    match e.tid with None -> "" | Some tid -> Fmt.str " %s" (Tid.name tid)
  in
  Fmt.pf ppf "#%d p%d%s %s.%a -> %a%s" e.index e.pid txn (name_of e.oid)
    Primitive.pp_compact e.prim Value.pp_compact e.response
    (if e.changed then " !" else "")

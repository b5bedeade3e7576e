(* Accumulates history events during a run.  The scheduler/TM front-end
   calls [inv]/[resp] around each transactional routine; [at] is the global
   step count at the time of the event, which places events on the same
   axis as access-log steps.

   Events are stored as struct-of-arrays columns rather than [Event.t]
   values: one packed metadata word (kind, op tag, resp tag, pid, tid),
   one step-count word, and one slot each in the item and value payload
   columns — about four words per event amortized, against a dozen or
   more for the records.  [history] materializes the chronological
   [Event.t] list only at snapshot time. *)

open Tm_base

(* meta word layout: bit 0 kind (0 inv / 1 resp), bits 1-3 op tag,
   bits 4-6 resp tag, bits 7-18 pid, bits 19+ tid *)
let kind_resp = 1
let optag_begin = 0
let optag_read = 1
let optag_write = 2
let optag_commit = 3
let optag_abort = 4
let rtag_ok = 0
let rtag_committed = 1
let rtag_aborted = 2
let rtag_value = 3
let pid_bits = 12
let tid_shift = 7 + pid_bits

type t = {
  meta : Intvec.t;
  ats : Intvec.t;
  items : Item.t Objvec.t;  (* payload of Read/Write ops; dummy otherwise *)
  vals : Value.t Objvec.t;  (* Write payload / R_value payload; dummy otherwise *)
}

let dummy_item : Item.t = Item.v "?"

let create () =
  {
    meta = Intvec.create ~chunk_bits:6 ();
    ats = Intvec.create ~chunk_bits:6 ();
    items = Objvec.create ~chunk_bits:6 ~dummy:dummy_item ();
    vals = Objvec.create ~chunk_bits:6 ~dummy:Value.unit ();
  }

let pack ~kind ~optag ~rtag ~pid ~tid =
  let ti = Tid.to_int tid in
  if pid lsr pid_bits <> 0 then invalid_arg "Recorder: pid out of range";
  if ti lsr (62 - tid_shift) <> 0 then invalid_arg "Recorder: tid out of range";
  kind lor (optag lsl 1) lor (rtag lsl 4) lor (pid lsl 7) lor (ti lsl tid_shift)

let push t ~tid ~pid ~at ~kind ~optag ~rtag ~item ~value =
  Intvec.push t.meta (pack ~kind ~optag ~rtag ~pid ~tid);
  Intvec.push t.ats at;
  Objvec.push t.items item;
  Objvec.push t.vals value

(* allocation-free entry points for the payload-carrying routines: no
   [Event.op]/[Event.resp] value is built on the hot path *)
let inv_read t ~tid ~pid ~at x =
  push t ~tid ~pid ~at ~kind:0 ~optag:optag_read ~rtag:0 ~item:x
    ~value:Value.unit

let resp_read_value t ~tid ~pid ~at x v =
  push t ~tid ~pid ~at ~kind:kind_resp ~optag:optag_read ~rtag:rtag_value
    ~item:x ~value:v

let resp_read_aborted t ~tid ~pid ~at x =
  push t ~tid ~pid ~at ~kind:kind_resp ~optag:optag_read ~rtag:rtag_aborted
    ~item:x ~value:Value.unit

let inv_write t ~tid ~pid ~at x v =
  push t ~tid ~pid ~at ~kind:0 ~optag:optag_write ~rtag:0 ~item:x ~value:v

let resp_write_ok t ~tid ~pid ~at x v =
  push t ~tid ~pid ~at ~kind:kind_resp ~optag:optag_write ~rtag:rtag_ok
    ~item:x ~value:v

let resp_write_aborted t ~tid ~pid ~at x v =
  push t ~tid ~pid ~at ~kind:kind_resp ~optag:optag_write ~rtag:rtag_aborted
    ~item:x ~value:v

(* an op's columns, each read by its own match: one function returning
   the three as a tuple would box it for every event *)
let optag_of = function
  | Event.Begin -> optag_begin
  | Event.Read _ -> optag_read
  | Event.Write _ -> optag_write
  | Event.Try_commit -> optag_commit
  | Event.Abort_call -> optag_abort

let item_of = function
  | Event.Read x | Event.Write (x, _) -> x
  | Event.Begin | Event.Try_commit | Event.Abort_call -> dummy_item

let written = function Event.Write (_, v) -> v | _ -> Value.unit

let rtag_of = function
  | Event.R_ok -> rtag_ok
  | Event.R_committed -> rtag_committed
  | Event.R_aborted -> rtag_aborted
  | Event.R_value _ -> rtag_value

let inv t ~tid ~pid ~at op =
  push t ~tid ~pid ~at ~kind:0 ~optag:(optag_of op) ~rtag:0 ~item:(item_of op)
    ~value:(written op)

let resp t ~tid ~pid ~at op r =
  push t ~tid ~pid ~at ~kind:kind_resp ~optag:(optag_of op) ~rtag:(rtag_of r)
    ~item:(item_of op)
    ~value:(match r with Event.R_value v -> v | _ -> written op)

let add t e =
  match e with
  | Event.Inv { tid; pid; op; at } -> inv t ~tid ~pid ~at op
  | Event.Resp { tid; pid; op; resp = r; at } -> resp t ~tid ~pid ~at op r

let length t = Intvec.length t.meta

let event_at t i =
  let m = Intvec.unsafe_get t.meta i in
  let optag = (m lsr 1) land 0x7 in
  let pid = (m lsr 7) land 0xFFF in
  let tid = Tid.v (m lsr tid_shift) in
  let at = Intvec.unsafe_get t.ats i in
  let op =
    if optag = optag_begin then Event.Begin
    else if optag = optag_read then Event.Read (Objvec.unsafe_get t.items i)
    else if optag = optag_write then
      Event.Write (Objvec.unsafe_get t.items i, Objvec.unsafe_get t.vals i)
    else if optag = optag_commit then Event.Try_commit
    else Event.Abort_call
  in
  if m land 1 = 0 then Event.Inv { tid; pid; op; at }
  else
    let rtag = (m lsr 4) land 0x7 in
    let resp =
      if rtag = rtag_ok then Event.R_ok
      else if rtag = rtag_committed then Event.R_committed
      else if rtag = rtag_aborted then Event.R_aborted
      else Event.R_value (Objvec.unsafe_get t.vals i)
    in
    Event.Resp { tid; pid; op; resp; at }

let history t =
  History.of_list (List.init (length t) (fun i -> event_at t i))

(* The flight recorder as it stood before it became a window over the
   recorded world's log: a fixed ring of [cap] boxed entries, filled one
   step at a time by a per-step hook ([record]), with the run context
   (less the history) and the JSONL export beside it.  Test-only: the
   oracle that test_flight checks the window against. *)

open Core

type t = {
  cap : int;
  buf : Access_log.entry array;
  mutable total : int;
  mutable names : string array;
  mutable meta : (string * string) list;
  mutable verdicts : Flight.verdict list;
}

let dummy_entry : Access_log.entry =
  {
    Access_log.index = 0;
    pid = 0;
    tid = None;
    oid = Oid.of_int 0;
    prim = Primitive.Read;
    response = Value.unit;
    changed = false;
  }

let create ~cap =
  {
    cap;
    buf = Array.make cap dummy_entry;
    total = 0;
    names = [||];
    meta = [];
    verdicts = [];
  }

let reset t =
  t.total <- 0;
  t.names <- [||];
  t.meta <- [];
  t.verdicts <- []

let record t (e : Access_log.entry) =
  t.buf.(t.total mod t.cap) <- e;
  t.total <- t.total + 1

let recorded t = t.total
let dropped t = max 0 (t.total - t.cap)

let steps t =
  let kept = min t.total t.cap in
  List.init kept (fun i -> t.buf.((t.total - kept + i) mod t.cap))

let find_step t index =
  List.find_opt (fun (e : Access_log.entry) -> e.Access_log.index = index)
    (steps t)

let set_names t names = t.names <- names
let set_meta t k v = t.meta <- t.meta @ [ (k, v) ]
let add_verdict t v = t.verdicts <- t.verdicts @ [ v ]

module J = Obs_json

let step_json (e : Access_log.entry) : J.t =
  J.Obj
    [
      ("type", J.String "step");
      ("i", J.Int e.Access_log.index);
      ("pid", J.Int e.Access_log.pid);
      ( "tid",
        match e.Access_log.tid with
        | Some tid -> J.Int (Tid.to_int tid)
        | None -> J.Null );
      ("oid", J.Int (Oid.to_int e.Access_log.oid));
      ("changed", J.Bool e.Access_log.changed);
      ("prim", Flight.prim_json e.Access_log.prim);
      ("resp", Flight.value_json e.Access_log.response);
    ]

let verdict_json (v : Flight.verdict) : J.t =
  J.Obj
    [
      ("type", J.String "verdict");
      ("source", J.String v.Flight.source);
      ("verdict", J.String v.Flight.verdict);
      ("axiom", J.String v.Flight.axiom);
      ( "txns",
        J.List (List.map (fun t -> J.Int (Tid.to_int t)) v.Flight.witness_txns)
      );
      ("steps", J.List (List.map (fun i -> J.Int i) v.Flight.witness_steps));
    ]

let to_jsonl t =
  let head =
    J.Obj
      [
        ("type", J.String "flight");
        ("version", J.Int Schema.version);
        Schema.field;
        ("meta", J.Obj (List.map (fun (k, v) -> (k, J.String v)) t.meta));
      ]
  in
  let objects =
    J.Obj
      [
        ("type", J.String "objects");
        ( "names",
          J.List (Array.to_list (Array.map (fun n -> J.String n) t.names)) );
      ]
  in
  let dropped_line =
    if dropped t = 0 then []
    else
      [ J.Obj [ ("type", J.String "dropped"); ("count", J.Int (dropped t)) ] ]
  in
  let values =
    (head :: objects :: dropped_line)
    @ List.map step_json (steps t)
    @ List.map verdict_json t.verdicts
  in
  String.concat "\n" (List.map J.to_string values) ^ "\n"

(* The flight recorder: a window over the step log of the world it
   records, plus everything needed to reproduce and explain the run
   afterwards — the object-name table, the history, run metadata (TM,
   schedule, seed) and verdict-provenance lines attached by checkers and
   detectors.

   A recorder is one execution: [Sim] attaches the installed recorder to
   each world's log as it builds the world, so after a run (or inside an
   explorer's [on_execution] callback) the window is exactly that
   execution.  Nothing is copied per step: the window reads the log's
   columns when an artifact is exported, and [cap] only chooses how many
   trailing steps it keeps.

   Artifacts are JSONL ({!to_jsonl}/{!parse} round-trip exactly) or Chrome
   trace-event JSON ({!to_chrome}, Perfetto-loadable). *)

open Tm_base

type verdict = {
  source : string;  (** checker or detector name *)
  verdict : string;  (** e.g. "unsat", "violated" *)
  axiom : string;  (** the violated condition, in words *)
  witness_txns : Tid.t list;
  witness_steps : int list;  (** global step indices *)
}

type t = {
  cap : int;
  mutable log : Access_log.t;
      (** the recorded world's own log, or the log a parse rebuilt *)
  mutable base : int;
      (** global index of the log's first step: 0 for a run; for a parsed
          artifact, the drops it declared, so its re-export reports the
          same loss *)
  mutable names : string array;
  mutable history : History.t;
  mutable meta : (string * string) list;
  mutable verdicts : verdict list;
}

let default_cap = 65_536

(* What a detached recorder reads: never appended to. *)
let no_log = Access_log.create ()

let create ?(cap = default_cap) () =
  if cap <= 0 then invalid_arg "Flight.create: cap must be positive";
  {
    cap;
    log = no_log;
    base = 0;
    names = [||];
    history = History.of_list [];
    meta = [];
    verdicts = [];
  }

let reset t =
  t.log <- no_log;
  t.base <- 0;
  t.names <- [||];
  t.history <- History.of_list [];
  t.meta <- [];
  t.verdicts <- []

let attach t log =
  reset t;
  t.log <- log

(* The window is the log's last [min length cap] steps. *)
let steps t =
  let n = Access_log.length t.log in
  let pos = n - min n t.cap in
  Access_log.window t.log ~pos ~len:(n - pos) ~first:(t.base + pos)

let recorded t = t.base + Access_log.length t.log
let dropped t = (steps t).Access_log.first

let find_step t index =
  let w = steps t in
  let k = index - w.Access_log.first in
  if k < 0 || k >= w.Access_log.len then None else Some (Access_log.step w k)

let set_names t names = t.names <- names

let name_of t (oid : Oid.t) =
  let i = Oid.to_int oid in
  if i >= 0 && i < Array.length t.names then t.names.(i)
  else Printf.sprintf "oid%d" i

let set_history t h = t.history <- h
let history t = t.history
let set_meta t k v = t.meta <- t.meta @ [ (k, v) ]
let meta t = t.meta
let meta_value t k = List.assoc_opt k t.meta
let add_verdict t v = t.verdicts <- t.verdicts @ [ v ]
let verdicts t = t.verdicts

(* ------------------------------------------------------------------ *)
(* The process-wide default recorder.  Like Sink.default, this lets the
   CLI enable recording without threading a recorder through every
   signature: Sim attaches it to every world it builds while one is
   installed. *)

let installed : t option ref = ref None
let default () = !installed

let with_recorder fl f =
  let prev = !installed in
  installed := Some fl;
  Fun.protect ~finally:(fun () -> installed := prev) f

(* ------------------------------------------------------------------ *)
(* JSON codecs for values, primitives and events.  Values use a compact
   tagged encoding in which the JSON scalars stand for themselves
   (VInt -> number, VBool -> bool, VUnit -> null) and the structured
   constructors are one-key objects — unambiguous, so parsing inverts
   printing exactly. *)

module J = Tm_obs.Obs_json

exception Bad of string

let bad fmt = Printf.ksprintf (fun s -> raise (Bad s)) fmt

let rec value_json : Value.t -> J.t = function
  | Value.VUnit -> J.Null
  | Value.VBool b -> J.Bool b
  | Value.VInt n -> J.Int n
  | Value.VStr s -> J.Obj [ ("s", J.String s) ]
  | Value.VPair (a, b) -> J.Obj [ ("p", J.List [ value_json a; value_json b ]) ]
  | Value.VList l -> J.Obj [ ("l", J.List (List.map value_json l)) ]

let rec value_of_json : J.t -> Value.t = function
  | J.Null -> Value.VUnit
  | J.Bool b -> Value.VBool b
  | J.Int n -> Value.VInt n
  | J.Obj [ ("s", J.String s) ] -> Value.VStr s
  | J.Obj [ ("p", J.List [ a; b ]) ] ->
      Value.VPair (value_of_json a, value_of_json b)
  | J.Obj [ ("l", J.List l) ] -> Value.VList (List.map value_of_json l)
  | j -> bad "bad value %s" (J.to_string j)

(* total field accessors used by the parser — raise [Bad] on absence *)

let field name j =
  match J.member name j with
  | Some v -> v
  | None -> bad "missing field %S in %s" name (J.to_string j)

let int_field name j =
  match J.to_int (field name j) with
  | Some n -> n
  | None -> bad "field %S is not an int in %s" name (J.to_string j)

let str_field name j =
  match J.to_str (field name j) with
  | Some s -> s
  | None -> bad "field %S is not a string in %s" name (J.to_string j)

let bool_field name j =
  match field name j with
  | J.Bool b -> b
  | _ -> bad "field %S is not a bool in %s" name (J.to_string j)

let prim_json : Primitive.t -> J.t =
  let k name rest = J.Obj (("k", J.String name) :: rest) in
  function
  | Primitive.Read -> k "read" []
  | Primitive.Write v -> k "write" [ ("v", value_json v) ]
  | Primitive.Cas { expected; desired } ->
      k "cas" [ ("e", value_json expected); ("d", value_json desired) ]
  | Primitive.Fetch_add n -> k "faa" [ ("n", J.Int n) ]
  | Primitive.Try_lock p -> k "trylock" [ ("p", J.Int p) ]
  | Primitive.Unlock p -> k "unlock" [ ("p", J.Int p) ]
  | Primitive.Load_linked p -> k "ll" [ ("p", J.Int p) ]
  | Primitive.Store_conditional (p, v) ->
      k "sc" [ ("p", J.Int p); ("v", value_json v) ]

let prim_of_json (j : J.t) : Primitive.t =
  let value name = value_of_json (field name j) in
  match str_field "k" j with
  | "read" -> Primitive.Read
  | "write" -> Primitive.Write (value "v")
  | "cas" -> Primitive.Cas { expected = value "e"; desired = value "d" }
  | "faa" -> Primitive.Fetch_add (int_field "n" j)
  | "trylock" -> Primitive.Try_lock (int_field "p" j)
  | "unlock" -> Primitive.Unlock (int_field "p" j)
  | "ll" -> Primitive.Load_linked (int_field "p" j)
  | "sc" -> Primitive.Store_conditional (int_field "p" j, value "v")
  | k -> bad "unknown primitive kind %S" k

let op_json : Event.op -> J.t = function
  | Event.Begin -> J.Obj [ ("op", J.String "begin") ]
  | Event.Read x ->
      J.Obj [ ("op", J.String "read"); ("item", J.String (Item.name x)) ]
  | Event.Write (x, v) ->
      J.Obj
        [
          ("op", J.String "write");
          ("item", J.String (Item.name x));
          ("value", value_json v);
        ]
  | Event.Try_commit -> J.Obj [ ("op", J.String "commit") ]
  | Event.Abort_call -> J.Obj [ ("op", J.String "abort") ]

let op_of_json (j : J.t) : Event.op =
  match str_field "op" j with
  | "begin" -> Event.Begin
  | "read" -> Event.Read (Item.v (str_field "item" j))
  | "write" ->
      Event.Write (Item.v (str_field "item" j), value_of_json (field "value" j))
  | "commit" -> Event.Try_commit
  | "abort" -> Event.Abort_call
  | op -> bad "unknown op %S" op

let resp_json : Event.resp -> J.t = function
  | Event.R_ok -> J.String "ok"
  | Event.R_committed -> J.String "committed"
  | Event.R_aborted -> J.String "aborted"
  | Event.R_value v -> J.Obj [ ("value", value_json v) ]

let resp_of_json : J.t -> Event.resp = function
  | J.String "ok" -> Event.R_ok
  | J.String "committed" -> Event.R_committed
  | J.String "aborted" -> Event.R_aborted
  | J.Obj [ ("value", v) ] -> Event.R_value (value_of_json v)
  | j -> bad "bad resp %s" (J.to_string j)

(* ------------------------------------------------------------------ *)
(* JSONL artifact.  Schema (one object per line, in this order):
     {"type":"flight","version":1,"schema":1,"meta":{...}}
     {"type":"objects","names":[...]}
     {"type":"dropped","count":N}                  (only if steps dropped)
     {"type":"step","i":I,"pid":P,"tid":T|null,"oid":O,"changed":B,
      "prim":{...},"resp":V}
     {"type":"event","kind":"inv"|"resp","tid":T,"pid":P,"at":A,
      "op":{...}[,"resp":...]}
     {"type":"verdict","source":S,"verdict":V,"axiom":A,
      "txns":[...],"steps":[...]}                                      *)

let version = Tm_obs.Schema.version

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
      ("prim", prim_json e.Access_log.prim);
      ("resp", value_json e.Access_log.response);
    ]

(* The rebuilt log sizes its per-process heads by the largest pid, so a
   parsed pid is bounded.  No recorded run goes higher: a schedule path
   packs a pid into 21 bits. *)
let max_pid = 0x1F_FFFF

(* A parsed step is appended to the log the parse rebuilds, where its
   index can only be the declared drops plus its position. *)
let record_step_json t (j : J.t) =
  let expected = recorded t in
  (match int_field "i" j with
  | i when i = expected -> ()
  | i -> bad "step index %d where %d was expected" i expected);
  let pid = int_field "pid" j in
  if pid < 0 || pid > max_pid then bad "pid %d outside 0..%d" pid max_pid;
  Access_log.record t.log ~pid
    ~tid:
      (match field "tid" j with
      | J.Null -> None
      | J.Int n -> Some (Tid.v n)
      | _ -> bad "field \"tid\" is not an int or null")
    ~oid:(Oid.of_int (int_field "oid" j))
    ~changed:(bool_field "changed" j)
    ~prim:(prim_of_json (field "prim" j))
    ~response:(value_of_json (field "resp" j))

let event_json (e : Event.t) : J.t =
  let common kind tid pid at op rest =
    J.Obj
      ([
         ("type", J.String "event");
         ("kind", J.String kind);
         ("tid", J.Int (Tid.to_int tid));
         ("pid", J.Int pid);
         ("at", J.Int at);
         ("op", op_json op);
       ]
      @ rest)
  in
  match e with
  | Event.Inv { tid; pid; op; at } -> common "inv" tid pid at op []
  | Event.Resp { tid; pid; op; resp; at } ->
      common "resp" tid pid at op [ ("resp", resp_json resp) ]

let event_of_json (j : J.t) : Event.t =
  let tid = Tid.v (int_field "tid" j) in
  let pid = int_field "pid" j in
  let at = int_field "at" j in
  let op = op_of_json (field "op" j) in
  match str_field "kind" j with
  | "inv" -> Event.Inv { tid; pid; op; at }
  | "resp" ->
      Event.Resp { tid; pid; op; resp = resp_of_json (field "resp" j); at }
  | k -> bad "bad event kind %S" k

let verdict_json (v : verdict) : J.t =
  J.Obj
    [
      ("type", J.String "verdict");
      ("source", J.String v.source);
      ("verdict", J.String v.verdict);
      ("axiom", J.String v.axiom);
      ("txns", J.List (List.map (fun t -> J.Int (Tid.to_int t)) v.witness_txns));
      ("steps", J.List (List.map (fun i -> J.Int i) v.witness_steps));
    ]

let verdict_of_json (j : J.t) : verdict =
  let ints name =
    match field name j with
    | J.List l ->
        List.map
          (fun v ->
            match J.to_int v with
            | Some n -> n
            | None -> bad "non-int in %S" name)
          l
    | _ -> bad "field %S is not a list" name
  in
  {
    source = str_field "source" j;
    verdict = str_field "verdict" j;
    axiom = str_field "axiom" j;
    witness_txns = List.map Tid.v (ints "txns");
    witness_steps = ints "steps";
  }

let jsonl_values t : J.t list =
  let head =
    J.Obj
      [
        ("type", J.String "flight");
        ("version", J.Int version);
        Tm_obs.Schema.field;
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
  let w = steps t in
  (head :: objects :: dropped_line)
  @ List.init w.Access_log.len (fun k -> step_json (Access_log.step w k))
  @ List.map event_json (History.to_list t.history)
  @ List.map verdict_json t.verdicts

let to_jsonl t =
  String.concat "\n" (List.map J.to_string (jsonl_values t)) ^ "\n"

let parse (text : string) : (t, string) result =
  let lines =
    String.split_on_char '\n' text
    |> List.mapi (fun i l -> (i + 1, String.trim l))
    |> List.filter (fun (_, l) -> l <> "")
  in
  let t = create ~cap:max_int () in
  t.log <- Access_log.create ();
  let events = ref [] in
  let handle_line j =
    match str_field "type" j with
    | "flight" -> (
        (match int_field "version" j with
        | v when v = version -> ()
        | v -> bad "unsupported flight version %d" v);
        match field "meta" j with
        | J.Obj kvs ->
            List.iter
              (fun (k, v) ->
                match J.to_str v with
                | Some s -> set_meta t k s
                | None -> bad "non-string meta %S" k)
              kvs
        | _ -> bad "flight line without meta object")
    | "objects" -> (
        match field "names" j with
        | J.List names ->
            t.names <-
              Array.of_list
                (List.map
                   (fun n ->
                     match J.to_str n with
                     | Some s -> s
                     | None -> bad "non-string object name")
                   names)
        | _ -> bad "objects line without names list")
    | "dropped" ->
        if Access_log.length t.log > 0 then bad "dropped line after a step";
        t.base <- int_field "count" j
    | "step" -> record_step_json t j
    | "event" -> events := event_of_json j :: !events
    | "verdict" -> add_verdict t (verdict_of_json j)
    | other -> bad "unknown line type %S" other
  in
  match
    List.iter
      (fun (n, line) ->
        try
          match J.parse line with
          | Ok j -> handle_line j
          | Error msg -> raise (Bad msg)
        with Bad msg | Invalid_argument msg -> bad "line %d: %s" n msg)
      lines
  with
  | () ->
      t.history <- History.of_list (List.rev !events);
      Ok t
  | exception Bad msg -> Error msg

let load path : (t, string) result =
  match open_in path with
  | exception Sys_error msg -> Error msg
  | ic ->
      let n = in_channel_length ic in
      let text = really_input_string ic n in
      close_in ic;
      parse text

(* ------------------------------------------------------------------ *)
(* Chrome trace-event export (Perfetto-loadable).  Timestamps are logical
   step indices (reported as microseconds); each process is a chrome
   "thread", transactions are complete ("X") events on their process lane
   and every atomic step is an instant ("i") event. *)

let to_chrome t : J.t =
  let txn_events =
    List.filter_map
      (fun tid ->
        match History.positions_of_txn t.history tid with
        | None -> None
        | Some (first, last) ->
            let at i = Event.at (History.get t.history i) in
            let pid =
              Option.value ~default:0 (History.pid_of_txn t.history tid)
            in
            let status = History.show_status (History.status t.history tid) in
            Some
              (J.Obj
                 [
                   ("name", J.String (Tid.name tid));
                   ("cat", J.String "txn");
                   ("ph", J.String "X");
                   ("ts", J.Int (at first));
                   ("dur", J.Int (max 1 (at last - at first)));
                   ("pid", J.Int 0);
                   ("tid", J.Int pid);
                   ("args", J.Obj [ ("status", J.String status) ]);
                 ]))
      (History.txns t.history)
  in
  let w = steps t in
  let step_events =
    List.init w.Access_log.len (fun k ->
        let e = Access_log.step w k in
        J.Obj
          [
            ( "name",
              J.String
                (Printf.sprintf "%s.%s"
                   (name_of t e.Access_log.oid)
                   (Primitive.kind_name e.Access_log.prim)) );
            ("cat", J.String "step");
            ("ph", J.String "i");
            ("s", J.String "t");
            ("ts", J.Int e.Access_log.index);
            ("pid", J.Int 0);
            ("tid", J.Int e.Access_log.pid);
            ( "args",
              J.Obj
                [
                  ( "tid",
                    match e.Access_log.tid with
                    | Some tid -> J.String (Tid.name tid)
                    | None -> J.Null );
                  ("changed", J.Bool e.Access_log.changed);
                ] );
          ])
  in
  J.Obj
    [
      ("traceEvents", J.List (txn_events @ step_events));
      ("displayTimeUnit", J.String "ms");
    ]

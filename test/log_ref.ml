(* The step log as an entry list, for the tests only: the reference
   reading that tests comparing two logs (or a window and a log) go
   through, and the list version of [Contention.summarize] that the
   window one is checked against.  Nothing in lib/ reads a log as a
   list. *)

open Core

(* every step of a window, oldest first, numbered by global index *)
let entries (w : Access_log.window) : Access_log.entry list =
  List.init w.Access_log.len (Access_log.step w)

let of_log log = entries (Access_log.whole log)

(* a fresh log recording the same steps, in order *)
let record_all (es : Access_log.entry list) : Access_log.t =
  let log = Access_log.create () in
  List.iter
    (fun (e : Access_log.entry) ->
      Access_log.record log ~pid:e.pid ~tid:e.tid ~oid:e.oid ~prim:e.prim
        ~response:e.response ~changed:e.changed)
    es;
  log

(* Per-transaction footprints over an entry list, sorted by tid: the
   oracle of [Contention.summarize] *)
let summarize (log : Access_log.entry list) : Contention.access_summary list =
  let tbl : (Tid.t, bool Oid.Map.t) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun (e : Access_log.entry) ->
      match e.tid with
      | None -> ()
      | Some tid ->
          let m =
            Option.value ~default:Oid.Map.empty (Hashtbl.find_opt tbl tid)
          in
          let prev = Option.value ~default:false (Oid.Map.find_opt e.oid m) in
          Hashtbl.replace tbl tid
            (Oid.Map.add e.oid (prev || Primitive.non_trivial e.prim) m))
    log;
  Hashtbl.fold
    (fun tid objects acc -> { Contention.tid; objects } :: acc)
    tbl []
  |> List.sort (fun (s1 : Contention.access_summary) s2 ->
         Tid.compare s1.tid s2.tid)

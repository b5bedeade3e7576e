(* The weaker conflict-graph variants of disjoint-access-parallelism
   (Section 2): contention between two transactions is allowed when they
   are connected by a path in the conflict graph of the execution interval
   containing both.  With a bound d on the path length this is the d-local
   contention property [2, 5, 6, 27]; with no bound it is the variant of
   [8, 31] (often called simply disjoint-access-parallelism, and what the
   authors' DSTM variant [11] satisfies for write contention). *)

open Tm_base

type violation = {
  t1 : Tid.t;
  t2 : Tid.t;
  objects : Oid.t list;
  distance : int option;  (** conflict-graph distance, None = disconnected *)
}

(** Contentions not justified by a conflict path of length <= [d]
    ([d = max_int] for the unbounded variant).  The conflict graph is built
    over all transactions of the window — the minimal execution interval
    containing any two of them is the whole execution, so this is the most
    permissive (hardest to violate) reading. *)
let violations ?(d = max_int) ~(data_sets : Conflict.data_sets)
    (w : Access_log.window) : violation list =
  let tids =
    List.map
      (fun (s : Contention.access_summary) -> s.tid)
      (Contention.summarize w)
  in
  let g = Conflict.graph data_sets tids in
  List.filter_map
    (fun (c : Contention.contention) ->
      let dist = Conflict.distance g c.t1 c.t2 in
      match dist with
      | Some n when n <= d -> None
      | _ -> Some { t1 = c.t1; t2 = c.t2; objects = c.objects; distance = dist })
    (Contention.all_contentions w)

let holds ?d ~data_sets log =
  let ok =
    Tm_obs.Sink.time ~labels:[ ("probe", "graph-dap") ] "probe_wall_ns"
      (fun () -> violations ?d ~data_sets log = [])
  in
  Tm_obs.Sink.incr
    ~labels:
      [ ("probe", "graph-dap"); ("result", (if ok then "holds" else "violated")) ]
    "probe_check_total";
  ok

(* Strict disjoint-access-parallelism (Section 3): in every execution, two
   transactions contend on a base object only if their data sets intersect.
   This checker is per-execution: it reports every contention between
   non-conflicting transactions as a violation (a single violation refutes
   strict DAP of the implementation). *)

open Tm_base

type violation = {
  t1 : Tid.t;
  t2 : Tid.t;
  objects : Oid.t list;  (** contended objects *)
}

let pp_violation ~name_of ppf (v : violation) =
  Fmt.pf ppf "%s and %s are disjoint but contend on %a" (Tid.name v.t1)
    (Tid.name v.t2)
    Fmt.(list ~sep:comma string)
    (List.map name_of v.objects)

(** All strict-DAP violations of an execution. *)
let violations ~(data_sets : Conflict.data_sets)
    (log : Access_log.window) : violation list =
  let conflict = Conflict.conflict data_sets in
  List.filter_map
    (fun (c : Contention.contention) ->
      if conflict c.t1 c.t2 then None
      else Some { t1 = c.t1; t2 = c.t2; objects = c.objects })
    (Contention.all_contentions log)

let holds ~data_sets log =
  let ok =
    Tm_obs.Sink.time ~labels:[ ("probe", "strict-dap") ] "probe_wall_ns"
      (fun () -> violations ~data_sets log = [])
  in
  Tm_obs.Sink.incr
    ~labels:
      [ ("probe", "strict-dap"); ("result", (if ok then "holds" else "violated")) ]
    "probe_check_total";
  ok

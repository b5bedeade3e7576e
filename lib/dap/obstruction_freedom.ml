(* Obstruction-freedom (Section 3): a transaction T may be aborted only if
   other processes take steps during T's execution interval.

   The per-execution detector: for every aborted transaction, check whether
   any other process took a step between T's first and last step (step
   contention).  An abort without step contention refutes
   obstruction-freedom.  Solo-run non-termination (the blocking liveness
   failure) is detected separately by the scheduler's step budgets. *)

open Tm_base
open Tm_trace

type violation = {
  tid : Tid.t;
  interval : int * int;  (** step interval of the transaction *)
}

let pp_violation ppf (v : violation) =
  let lo, hi = v.interval in
  Fmt.pf ppf "%s aborted without step contention (steps %d..%d)"
    (Tid.name v.tid) lo hi

(* Steps attributed to [tid] in the window, as (first, last) global
   indices.  Falls back to event timestamps when the transaction took no
   shared steps. *)
let step_interval (h : History.t) (w : Access_log.window) tid :
    (int * int) option =
  let { Access_log.log; pos; len; first } = w in
  let lo = ref (-1) and hi = ref (-1) in
  for k = 0 to len - 1 do
    if Access_log.tid_int_at log (pos + k) = Tid.to_int tid then begin
      if !lo < 0 then lo := first + k;
      hi := first + k
    end
  done;
  if !lo >= 0 then Some (!lo, !hi)
  else
    (* no shared steps: use the event 'at' stamps (step counts at event
       time) as a degenerate interval *)
    Option.map
      (fun (f, l) ->
        let at i = Event.at (History.get h i) in
        (at f, at l))
      (History.positions_of_txn h tid)

(* An aborted transaction whose first event precedes the window's first
   step may have met its contention in the steps the window lacks, so the
   window cannot judge it. *)
let violations (h : History.t) (w : Access_log.window) : violation list =
  let { Access_log.log; pos; len; first } = w in
  let judged tid =
    History.aborted h tid
    &&
    match History.positions_of_txn h tid with
    | Some (f, _) -> Event.at (History.get h f) >= first
    | None -> true
  in
  List.filter_map
    (fun tid ->
      match step_interval h w tid with
      | None -> None
      | Some (lo, hi) ->
          let pid =
            Option.value ~default:(-1) (History.pid_of_txn h tid)
          in
          let contended = ref false in
          for k = max 0 (lo - first) to min (len - 1) (hi - first) do
            if Access_log.pid_at log (pos + k) <> pid then contended := true
          done;
          if !contended then None else Some { tid; interval = (lo, hi) })
    (List.filter judged (History.txns h))

let holds h log =
  let ok =
    Tm_obs.Sink.time ~labels:[ ("probe", "obstruction-freedom") ]
      "probe_wall_ns"
      (fun () -> violations h log = [])
  in
  Tm_obs.Sink.incr
    ~labels:
      [
        ("probe", "obstruction-freedom");
        ("result", (if ok then "holds" else "violated"));
      ]
    "probe_check_total";
  ok

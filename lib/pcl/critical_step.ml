(* Locating the critical steps s1 and s2 (Figures 1 and 2).

   The proof establishes that *some* step of the writer's solo run flips
   the value a later solo reader observes; executably, the existence
   argument becomes a linear scan over solo-prefix lengths.  The possible
   outcomes map exactly onto the PCL triangle:

   - [Found]    — the flip step exists: the construction continues.
   - [No_flip]  — the reader never observes the writer's committed value:
                  the TM cannot satisfy weak adaptive consistency (the
                  delta_1 case analysis at the start of the proof).
   - [Liveness] — the writer cannot commit solo, or the reader cannot
                  complete solo from some reachable configuration
                  (obstruction-freedom / solo progress violated). *)

open Tm_base
open Tm_runtime
open Tm_impl

type found = {
  k : int;  (** s = the k-th step of the writer's solo segment (1-based) *)
  step : Access_log.entry;  (** the step itself *)
  before : Value.t;  (** reader's value from the configuration before s *)
  after : Value.t;  (** reader's value from the configuration after s *)
  writer_total : int;  (** steps of the writer's full solo segment *)
}

type result =
  | Found of found
  | No_flip of { writer_total : int; value : Value.t }
  | Liveness of { phase : string; at_prefix : int option }
  | Crashed of string

(* The scan's experiment: [writer] suspended after k solo steps (run
   after [prefix]), [reader] then run solo, in the proof's world *)
let entry ~prefix ~writer ~reader : Tm_probe.Solo_probe.entry =
  { specs = Txns.specs; prefix; enemy = writer; probe = reader;
    budget = Harness.default_budget }

(** [find impl ~prefix ~writer ~reader ~reader_tid ~item ~initial_value]
    — read the solo-probe points of [writer] (run after [prefix]) in
    order, and locate the first after which [reader], run solo to
    completion, reads something other than [initial_value] for [item]. *)
let find (impl : Tm_intf.impl) ~(prefix : Schedule.atom list)
    ~(writer : int) ~(reader : int) ~(reader_tid : Tid.t) ~(item : Item.t)
    ~(initial_value : Value.t) : result =
  let module P = Tm_probe.Solo_probe in
  let scan = P.scan impl (entry ~prefix ~writer ~reader) in
  (* the writer does not run during [prefix] in the proof's
     constructions, so its steps are those of its solo segment *)
  let writer_total = scan.P.n in
  let run (p : P.point) = { Harness.sim = p.run; outcomes = p.outcomes } in
  let read (p : P.point) =
    match p.outcome with
    | P.Commit -> (
        match Harness.read_of (run p) reader_tid item with
        | Some v -> Ok v
        | None -> Error (Crashed "reader committed without the read"))
    | P.Abort ->
        (* the reader ran solo (every writer step precedes its interval),
           so an abort violates obstruction-freedom *)
        Error (Liveness { phase = "reader solo abort"; at_prefix = Some p.k })
    | P.Unfinished (Schedule.Crashed (_, e)) ->
        Error (Crashed (Printexc.to_string e))
    | P.Unfinished _ ->
        Error (Liveness { phase = "reader solo run"; at_prefix = Some p.k })
  in
  (* [before]: the previous point's read, none at k = 0 *)
  let rec go before points =
    match points () with
    | Seq.Nil ->
        No_flip
          { writer_total; value = Option.value before ~default:initial_value }
    | Seq.Cons (p, rest) -> (
        match read p with
        | Error e -> e
        | Ok v when Value.equal v initial_value -> go (Some v) rest
        | Ok after -> (
            (* the flip is the writer's k-th step, in this point's log *)
            match (before, Harness.nth_step_of_pid (run p) writer p.k) with
            | Some before, Some step ->
                Found { k = p.k; step; before; after; writer_total }
            | _ -> Crashed "flip step not found in log"))
  in
  match scan.P.solo.Sim.report.Schedule.stop with
  | Schedule.Crashed (_, e) -> Crashed (Printexc.to_string e)
  | Schedule.Budget_exhausted _ ->
      Liveness { phase = "writer solo run"; at_prefix = None }
  | Schedule.Completed -> go None (P.points scan)

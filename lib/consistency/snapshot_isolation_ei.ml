(* Snapshot isolation over *execution intervals* — the Section-5 remark
   made executable.

   The paper notes that its Definition 3.1 uses active execution intervals
   (a live transaction's interval ends at its last step), which makes its
   snapshot isolation incomparable with strict serializability and
   opacity, and that the companion report [11] re-proves the impossibility
   for the execution-interval variant, where the interval of an incomplete
   transaction is the whole suffix of the execution.

   Operationally the only difference is the window of a live
   (commit-pending) transaction's serialization points: here it extends to
   the end of the history, so a pending commit may serialize after
   operations that follow its last step.  This makes the condition weaker
   than Def. 3.1 (every active-interval placement is an execution-interval
   placement) and comparable with the interval-based conditions. *)

open Tm_base
open Tm_trace

let ei_window (h : History.t) (i : Blocks.txn) =
  if
    i.Blocks.status = History.Commit_pending
    || i.Blocks.status = History.Live
  then (i.Blocks.first_pos + 1, History.length h)
  else Checker_util.active_window i

let plan (h : History.t) (tbl : Blocks.t) (tids : Tid.t list) =
  let points = ref [] and prec = ref [] and n = ref 0 in
  let add block window =
    let lo, hi = window in
    points := { Placement.block; lo; hi } :: !points;
    incr n;
    !n - 1
  in
  List.iter
    (fun tid ->
      let i = Blocks.txn tbl tid in
      let window = ei_window h i in
      let gr =
        if i.Blocks.greads <> [||] then Some (add (Blocks.Greads tid) window)
        else None
      in
      let w =
        if i.Blocks.writes <> [||] then Some (add (Blocks.Wblock tid) window)
        else None
      in
      match (gr, w) with
      | Some g, Some wi -> prec := (g, wi) :: !prec
      | _ -> ())
    tids;
  (Array.of_list (List.rev !points), !prec)

let check ?(budget = Spec.default_budget) (h : History.t) : Spec.verdict =
  let tbl = Blocks.table h in
  let bref = ref budget in
  Checker_util.exists_com h (fun com ->
      let tids = Tid.Set.elements com in
      let points, prec = plan h tbl tids in
      Placement.satisfiable ~budget:bref tbl
        {
          Placement.points;
          prec;
          focus = (fun t -> Tid.Set.mem t.Blocks.tid com);
        })

let checker : Spec.checker =
  { Spec.name = "snapshot-isolation(ei)"; check }

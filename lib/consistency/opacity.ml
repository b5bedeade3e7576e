(* Opacity [Guerraoui & Kapalka 08], in its final-state formulation plus an
   optional all-prefixes mode.

   Final-state check: one shared view containing *every* transaction of the
   history — com(alpha) members as installing blocks, everything else
   (aborted, live, unchosen commit-pending) as ghost blocks whose reads are
   checked but whose writes are never installed — ordered consistently with
   real time.  With [prefixes:true] the same check runs on every event
   prefix, which is the textbook definition.

   Note (paper, Section 5): opacity and strict serializability are defined
   in terms of execution intervals, whereas the paper's snapshot isolation
   uses active execution intervals — the two families are incomparable, and
   this checker exists mainly to position implementations on the
   consistency lattice. *)

open Tm_base
open Tm_trace

let check_final ?(budget = Spec.default_budget) (h : History.t) :
    Spec.verdict =
  let tbl = Blocks.table h in
  let bref = ref budget in
  Checker_util.exists_com h (fun com ->
      let tids = History.txns h in
      let lo, hi = Checker_util.unbounded h in
      let points =
        Array.of_list
          (List.map
             (fun tid ->
               let block =
                 if Tid.Set.mem tid com then Blocks.Whole tid
                 else Blocks.Whole_ghost tid
               in
               { Placement.block; lo; hi })
             tids)
      in
      let index_of =
        let t = Hashtbl.create 16 in
        List.iteri (fun i x -> Hashtbl.replace t x i) tids;
        fun x -> Hashtbl.find_opt t x
      in
      let prec = Checker_util.realtime_prec h tids index_of in
      Placement.satisfiable ~budget:bref tbl
        { Placement.points; prec; focus = (fun _ -> true) })

(** Event prefixes that do not split an invocation from its response. *)
let prefixes (h : History.t) : History.t Seq.t =
  let evs = Array.of_list (History.to_list h) in
  let n = Array.length evs in
  let rec go i () =
    if i > n then Seq.Nil
    else
      let sub = Array.to_list (Array.sub evs 0 i) in
      (* cutting just before a response is fine only for commit
         invocations (commit-pending); any other dangling invocation is
         dropped to keep the prefix well-formed *)
      let sub =
        match List.rev sub with
        | Event.Inv { op = Event.Try_commit; _ } :: _ -> sub
        | Event.Inv _ :: rest -> List.rev rest
        | _ -> sub
      in
      Seq.Cons (History.of_list sub, go (i + 1))
  in
  go 0

let check ?(budget = Spec.default_budget) ?(all_prefixes = false)
    (h : History.t) : Spec.verdict =
  if not all_prefixes then check_final ~budget h
  else
    let hit = ref false in
    let bad = ref false in
    Seq.iter
      (fun p ->
        if not !bad then
          match check_final ~budget p with
          | Spec.Sat -> ()
          | Spec.Unsat -> bad := true
          | Spec.Out_of_budget -> hit := true)
      (prefixes h);
    if !bad then Spec.Unsat
    else if !hit then Spec.Out_of_budget
    else Spec.Sat

let checker : Spec.checker =
  { Spec.name = "opacity(final-state)"; check = (fun ?budget h -> check ?budget h) }

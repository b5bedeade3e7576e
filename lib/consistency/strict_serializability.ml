(* Strict serializability [Papadimitriou 79]: serializability where the
   serialization order additionally respects the real-time precedence
   T1 <alpha T2 between non-overlapping transactions. *)

open Tm_base
open Tm_trace

let check ?(budget = Spec.default_budget) (h : History.t) : Spec.verdict =
  let tbl = Blocks.table h in
  let bref = ref budget in
  Checker_util.exists_com h (fun com ->
      let tids = Tid.Set.elements com in
      let lo, hi = Checker_util.unbounded h in
      let points =
        Array.of_list
          (List.map
             (fun tid -> { Placement.block = Blocks.Whole tid; lo; hi })
             tids)
      in
      let index_of =
        let tbl = Hashtbl.create 16 in
        List.iteri (fun i t -> Hashtbl.replace tbl t i) tids;
        fun t -> Hashtbl.find_opt tbl t
      in
      let prec = Checker_util.realtime_prec h tids index_of in
      Placement.satisfiable ~budget:bref tbl
        {
          Placement.points;
          prec;
          focus = (fun t -> Tid.Set.mem t.Blocks.tid com);
        })

let checker : Spec.checker = { Spec.name = "strict-serializability"; check }

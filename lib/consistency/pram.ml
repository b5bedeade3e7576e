(* PRAM consistency [Lipton & Sandberg 88], lifted to transactions as in
   the paper's comparison: processor consistency without the requirement
   that writes to the same data item appear in the same order in all
   sequential views (condition 1b dropped). *)

open Tm_trace

let check ?(budget = Spec.default_budget) (h : History.t) : Spec.verdict =
  let tbl = Blocks.table h in
  let bref = ref budget in
  Checker_util.exists_com h (fun com ->
      let views, _pairs =
        Processor_consistency.build_views h tbl com
          ~extra_prec:(fun _ _ -> [])
      in
      (* no agreement pairs: each view independent *)
      Views.solve_agreeing ~budget:bref tbl views ~pairs:[||])

let checker : Spec.checker = { Spec.name = "pram"; check }

(** The per-process witness views (no write-order agreement). *)
let explain ?budget h =
  Processor_consistency.explain_views ?budget ~with_pairs:false h

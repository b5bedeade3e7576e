(* Serializability [Papadimitriou 79], as stated in the paper: all
   committed transactions (and some of the commit-pending ones) execute as
   in a legal sequential execution.  One shared view, whole transactions at
   single points, no window constraints.

   As is standard in the TM literature (and required for the paper's
   lattice, where serializability is stronger than processor consistency),
   the serialization respects each process's own program order; it need not
   respect real-time order across processes — that is strict
   serializability. *)

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
        let t = Hashtbl.create 16 in
        List.iteri (fun i x -> Hashtbl.replace t x i) tids;
        fun x -> Hashtbl.find_opt t x
      in
      let prec = Checker_util.program_order_prec h tbl tids index_of in
      Placement.satisfiable ~budget:bref tbl
        {
          Placement.points;
          prec;
          focus = (fun t -> Tid.Set.mem t.Blocks.tid com);
        })

let checker : Spec.checker = { Spec.name = "serializability"; check }

(** The witness serialization, when one exists. *)
let explain ?(budget = Spec.default_budget) (h : History.t) :
    Witness.t option =
  let tbl = Blocks.table h in
  let bref = ref budget in
  let found = ref None in
  Seq.iter
    (fun com ->
      if !found = None then begin
        let tids = Tid.Set.elements com in
        let lo, hi = Checker_util.unbounded h in
        let points =
          Array.of_list
            (List.map
               (fun tid -> { Placement.block = Blocks.Whole tid; lo; hi })
               tids)
        in
        let index_of =
          let t = Hashtbl.create 16 in
          List.iteri (fun i x -> Hashtbl.replace t x i) tids;
          fun x -> Hashtbl.find_opt t x
        in
        let prec = Checker_util.program_order_prec h tbl tids index_of in
        match
          Placement.first_solution ~budget:bref tbl
            {
              Placement.points;
              prec;
              focus = (fun t -> Tid.Set.mem t.Blocks.tid com);
            }
        with
        | Some order, _ ->
            found :=
              Some
                {
                  Witness.com = tids;
                  views =
                    [ { Witness.view_pid = None;
                        order =
                          List.map (fun i -> points.(i).Placement.block) order
                      } ];
                  groups = None;
                }
        | None, _ -> ()
      end)
    (Spec.com_candidates h);
  !found

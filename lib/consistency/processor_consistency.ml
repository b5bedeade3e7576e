(* Processor consistency, Definition 3.2: each process p_i has its own
   serialization sigma_i of whole transactions such that (1a) transactions
   of the same process keep their real-time order in every view, (1b)
   writes to a common item are ordered identically in all views, and (2)
   every transaction executed by p_i is legal in the history induced by
   sigma_i. *)

open Tm_base
open Tm_trace

(** Build the per-process views for PC-style checkers, and the points
    carrying the writes of each common-writer pair.  Every view holds the
    same points, one whole transaction each; only the focus differs. *)
let build_views (h : History.t) (tbl : Blocks.t) (com : Tid.Set.t)
    ~(extra_prec : Tid.t list -> (Tid.t -> int option) -> (int * int) list) :
    Views.view list * (int * int) array =
  let tids = Tid.Set.elements com in
  let lo, hi = Checker_util.unbounded h in
  let index_of =
    let tbl = Hashtbl.create 16 in
    List.iteri (fun i t -> Hashtbl.replace tbl t i) tids;
    fun t -> Hashtbl.find_opt tbl t
  in
  let points =
    Array.of_list
      (List.map (fun tid -> { Placement.block = Blocks.Whole tid; lo; hi }) tids)
  in
  let prec =
    Checker_util.program_order_prec h tbl tids index_of
    @ extra_prec tids index_of
  in
  let views =
    List.map
      (fun pid ->
        {
          Views.view_pid = pid;
          problem =
            {
              Placement.points;
              prec;
              (* every point is a com(alpha) member *)
              focus = (fun t -> t.Blocks.pid = pid);
            };
        })
      (Checker_util.view_pids tbl tids)
  in
  let pairs =
    Array.of_list
      (List.map
         (fun (a, b) -> (Option.get (index_of a), Option.get (index_of b)))
         (Views.common_writer_pairs tbl tids))
  in
  (views, pairs)

let check ?(budget = Spec.default_budget) (h : History.t) : Spec.verdict =
  let tbl = Blocks.table h in
  let bref = ref budget in
  Checker_util.exists_com h (fun com ->
      let views, pairs = build_views h tbl com ~extra_prec:(fun _ _ -> []) in
      Views.solve_agreeing ~budget:bref tbl views ~pairs)

let checker : Spec.checker = { Spec.name = "processor-consistency"; check }

(** The per-process witness views, when they exist ([pairs] off gives the
    PRAM witness). *)
let explain_views ?(budget = Spec.default_budget) ~(with_pairs : bool)
    (h : History.t) : Witness.t option =
  let tbl = Blocks.table h in
  let bref = ref budget in
  let found = ref None in
  Seq.iter
    (fun com ->
      if !found = None then begin
        let views, pairs = build_views h tbl com ~extra_prec:(fun _ _ -> []) in
        let wref = ref [] in
        match
          Views.solve_agreeing ~witness:wref ~budget:bref tbl views
            ~pairs:(if with_pairs then pairs else [||])
        with
        | Spec.Sat ->
            found :=
              Some
                {
                  Witness.com = Tid.Set.elements com;
                  views =
                    List.map
                      (fun (pid, order) ->
                        let v =
                          List.find (fun v -> v.Views.view_pid = pid) views
                        in
                        {
                          Witness.view_pid = Some pid;
                          order =
                            List.map
                              (fun i ->
                                v.Views.problem.Placement.points.(i)
                                  .Placement.block)
                              order;
                        })
                      !wref;
                  groups = None;
                }
        | Spec.Unsat | Spec.Out_of_budget -> ()
      end)
    (Spec.com_candidates h);
  !found

let explain ?budget h = explain_views ?budget ~with_pairs:true h

(* Snapshot isolation, Definition 3.1 — the paper's deliberately *weak*
   variant: one shared view; for each T in com(alpha) a global-read point
   and a write point, both inside T's active execution interval, with the
   read point first; the induced history (T_gr and T_w blocks) is legal.

   Deliberately absent, as in the paper: the "first committer wins" rule,
   and any constraint on reads after writes to the same item (local reads).
*)

open Tm_base
open Tm_trace

type plan = {
  points : Placement.point array;
  prec : (int * int) list;
  w_point : Tid.t -> int option;
}

(** Build the SI points for [tids]: a [Greads] point and a [Wblock] point
    per transaction (omitting empty blocks), windows equal to the active
    execution interval, read point before write point. *)
let si_points (tbl : Blocks.t) (tids : Tid.t list) : plan =
  let points = ref [] and prec = ref [] and n = ref 0 in
  let w_tbl = Hashtbl.create 16 in
  let add block window =
    let lo, hi = window in
    points := { Placement.block; lo; hi } :: !points;
    incr n;
    !n - 1
  in
  List.iter
    (fun tid ->
      let i = Blocks.txn tbl tid in
      let window = Checker_util.active_window i in
      let gr =
        if i.Blocks.greads <> [||] then Some (add (Blocks.Greads tid) window)
        else None
      in
      let w =
        if i.Blocks.writes <> [||] then Some (add (Blocks.Wblock tid) window)
        else None
      in
      Option.iter (fun wi -> Hashtbl.replace w_tbl tid wi) w;
      match (gr, w) with
      | Some g, Some wi -> prec := (g, wi) :: !prec
      | _ -> ())
    tids;
  {
    points = Array.of_list (List.rev !points);
    prec = !prec;
    w_point = (fun t -> Hashtbl.find_opt w_tbl t);
  }

let check ?(budget = Spec.default_budget) (h : History.t) : Spec.verdict =
  let tbl = Blocks.table h in
  let bref = ref budget in
  Checker_util.exists_com h (fun com ->
      let tids = Tid.Set.elements com in
      let plan = si_points tbl tids in
      Placement.satisfiable ~budget:bref tbl
        {
          Placement.points = plan.points;
          prec = plan.prec;
          focus = (fun t -> Tid.Set.mem t.Blocks.tid com);
        })

let checker : Spec.checker = { Spec.name = "snapshot-isolation"; check }

(** The witness placement (read and write points), when one exists. *)
let explain ?(budget = Spec.default_budget) (h : History.t) :
    Witness.t option =
  let tbl = Blocks.table h in
  let bref = ref budget in
  let found = ref None in
  Seq.iter
    (fun com ->
      if !found = None then begin
        let tids = Tid.Set.elements com in
        let plan = si_points tbl tids in
        match
          Placement.first_solution ~budget:bref tbl
            { Placement.points = plan.points; prec = plan.prec;
              focus = (fun t -> Tid.Set.mem t.Blocks.tid com) }
        with
        | Some order, _ ->
            found :=
              Some
                {
                  Witness.com = tids;
                  views =
                    [ { Witness.view_pid = None;
                        order =
                          List.map
                            (fun i -> plan.points.(i).Placement.block)
                            order } ];
                  groups = None;
                }
        | None, _ -> ()
      end)
    (Spec.com_candidates h);
  !found

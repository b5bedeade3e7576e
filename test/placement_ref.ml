(* The serialization-point placement search as it stood before it was
   compiled onto arrays: every node evaluates its candidate blocks with
   Blocks.eval against a persistent Item.Map keyed by item names, and
   checks precedence with List.for_all over each point's predecessors.
   Test-only: the slow oracle that test_consistency checks the compiled
   Placement.solve against, node for node. *)

open Core

type problem = {
  points : Placement.point array;
  prec : (int * int) list;  (** (a, b): point a before point b *)
  focus : Tid.t -> bool;
  info_of : Tid.t -> Blocks.txn_info;
}

let solve ~(budget : int ref) (p : problem) ~(on_solution : int list -> bool)
    : Placement.outcome =
  let n = Array.length p.points in
  let preds = Array.make n [] in
  List.iter
    (fun (a, b) ->
      if a < 0 || a >= n || b < 0 || b >= n then
        invalid_arg "Placement.solve: precedence index out of range";
      preds.(b) <- a :: preds.(b))
    p.prec;
  let placed = Array.make n false in
  let order_rev = ref [] in
  let exception Stop in
  let exception Out_of_budget in
  let rec dfs placed_count floor state =
    if !budget <= 0 then raise Out_of_budget;
    decr budget;
    if placed_count = n then begin
      if on_solution (List.rev !order_rev) then raise Stop
    end
    else begin
      (* dead-end pruning: some unplaced point can no longer fit *)
      let dead = ref false in
      for i = 0 to n - 1 do
        if (not placed.(i)) && p.points.(i).Placement.hi < floor then
          dead := true
      done;
      if not !dead then
        for i = 0 to n - 1 do
          if
            (not placed.(i))
            && List.for_all (fun a -> placed.(a)) preds.(i)
            && p.points.(i).Placement.hi >= floor
          then begin
            let pt = p.points.(i) in
            match
              Blocks.eval ~focus:p.focus p.info_of state pt.Placement.block
            with
            | None -> () (* illegal read at this position: prune *)
            | Some state' ->
                placed.(i) <- true;
                order_rev := i :: !order_rev;
                dfs (placed_count + 1) (max floor pt.Placement.lo) state';
                order_rev := List.tl !order_rev;
                placed.(i) <- false
          end
        done
    end
  in
  match dfs 0 0 Item.Map.empty with
  | () -> Placement.Exhausted
  | exception Stop -> Placement.Stopped
  | exception Out_of_budget -> Placement.Budget_exceeded

(* Weak adaptive consistency as it was decided before the checker stopped
   at a spent budget: every (com(alpha), partition, typing) choice is
   tried in order, each one rebuilding its com's elements, view pids,
   common-writer pairs and views, and a choice tried after the shared
   budget is spent fails at its first search node.  Its views run on
   Views_ref and Placement_ref.  Test-only: the slow oracle that
   test_consistency checks Weak_adaptive's stop rule against. *)

open Core

type group = Weak_adaptive.group = { members : Tid.t list; window : int * int }

(** Consistency partitions (Def. 3.3's P(alpha)): contiguous blocks of the
    begin order, over *all* transactions of the history.  Each group's
    window is its active execution interval: from the first event of its
    first member to the last event of any member. *)
let partitions (h : History.t) (info_of : Tid.t -> Blocks.txn_info) :
    group list Seq.t =
  let order = History.begin_order h in
  Seq.map
    (List.map (fun members ->
         match members with
         | [] -> { members = []; window = (0, 0) }
         | first :: _ ->
             let lo = (info_of first).Blocks.first_pos + 1 in
             let hi =
               List.fold_left
                 (fun acc t -> max acc (info_of t).Blocks.last_pos)
                 0 members
             in
             { members; window = (lo, hi) }))
    (Spec.compositions order)

let active_window (i : Blocks.txn_info) = (i.Blocks.first_pos + 1, i.Blocks.last_pos)

let view_pids (info_of : Tid.t -> Blocks.txn_info) (tids : Tid.t list) =
  List.sort_uniq compare (List.map (fun t -> (info_of t).Blocks.pid) tids)

let info_table (h : History.t) =
  let tbl = Hashtbl.create 16 in
  List.iter (fun tid -> Hashtbl.replace tbl tid (Blocks.info h tid)) (History.txns h);
  fun tid -> Hashtbl.find tbl tid

(** Build one process view for a given partition/assignment/com choice. *)
let build_view (info_of : Tid.t -> Blocks.txn_info) (com : Tid.Set.t)
    (groups : group list) (si : bool array) ~view_pid : Views_ref.view =
  let points = ref [] and prec = ref [] and n = ref 0 in
  let w_tbl = Hashtbl.create 16 in
  let add block window =
    let lo, hi = window in
    points := { Placement.block; lo; hi } :: !points;
    incr n;
    !n - 1
  in
  List.iteri
    (fun g group ->
      List.iter
        (fun tid ->
          if Tid.Set.mem tid com then begin
            let i = info_of tid in
            if si.(g) then begin
              (* snapshot-isolation group: separate points inside the
                 transaction's own active interval *)
              let window = active_window i in
              let gr =
                if i.Blocks.greads <> [] then
                  Some (add (Blocks.Greads tid) window)
                else None
              in
              let w =
                if i.Blocks.writes <> [] then
                  Some (add (Blocks.Wblock tid) window)
                else None
              in
              Option.iter (fun wi -> Hashtbl.replace w_tbl tid wi) w;
              match (gr, w) with
              | Some a, Some b -> prec := (a, b) :: !prec
              | _ -> ()
            end
            else begin
              (* processor-consistency group: adjacent gr/w, i.e. one fused
                 point, inside the group's active interval *)
              if i.Blocks.greads <> [] || i.Blocks.writes <> [] then begin
                let p = add (Blocks.Fused tid) group.window in
                if i.Blocks.writes <> [] then Hashtbl.replace w_tbl tid p
              end
            end
          end)
        group.members)
    groups;
  {
    Views_ref.view_pid;
    problem =
      {
        Placement_ref.points = Array.of_list (List.rev !points);
        prec = !prec;
        focus =
          (fun t -> Tid.Set.mem t com && (info_of t).Blocks.pid = view_pid);
        info_of;
      };
    w_point = (fun t -> Hashtbl.find_opt w_tbl t);
  }

let check ?(budget = Spec.default_budget) ?(com_filter = fun _ -> true)
    (h : History.t) : Spec.verdict =
  let info_of = info_table h in
  let bref = ref budget in
  let hit_budget = ref false in
  let try_choice (com : Tid.Set.t) (groups : group list) (si : bool array) :
      bool =
    let tids = Tid.Set.elements com in
    let pids = view_pids info_of tids in
    let views =
      List.map (fun pid -> build_view info_of com groups si ~view_pid:pid) pids
    in
    let pairs = Views_ref.common_writer_pairs info_of tids in
    match Views_ref.solve_agreeing ~budget:bref views ~pairs with
    | Spec.Sat -> true
    | Spec.Out_of_budget ->
        hit_budget := true;
        false
    | Spec.Unsat -> false
  in
  let found = ref false in
  let com_seq = Seq.filter com_filter (Spec.com_candidates h) in
  Seq.iter
    (fun com ->
      if not !found then
        Seq.iter
          (fun groups ->
            if not !found then
              Seq.iter
                (fun si ->
                  if (not !found) && try_choice com groups si then
                    found := true)
                (Spec.bool_vectors (List.length groups)))
          (partitions h info_of))
    com_seq;
  if !found then Spec.Sat
  else if !hit_budget then Spec.Out_of_budget
  else Spec.Unsat

let explain ?(budget = Spec.default_budget) (h : History.t) :
    Witness.t option =
  let info_of = info_table h in
  let bref = ref budget in
  let found = ref None in
  let try_choice com groups si =
    let tids = Tid.Set.elements com in
    let pids = view_pids info_of tids in
    let views =
      List.map (fun pid -> build_view info_of com groups si ~view_pid:pid) pids
    in
    let pairs = Views_ref.common_writer_pairs info_of tids in
    let wref = ref [] in
    match Views_ref.solve_agreeing ~witness:wref ~budget:bref views ~pairs with
    | Spec.Sat ->
        found :=
          Some
            {
              Witness.com = tids;
              views =
                List.map
                  (fun (pid, order) ->
                    let v =
                      List.find (fun v -> v.Views_ref.view_pid = pid) views
                    in
                    {
                      Witness.view_pid = Some pid;
                      order =
                        List.map
                          (fun i ->
                            v.Views_ref.problem.Placement_ref.points.(i)
                              .Placement.block)
                          order;
                    })
                  !wref;
              groups =
                Some
                  (List.mapi
                     (fun g group ->
                       (group.members, if si.(g) then `Si else `Pc))
                     groups);
            };
        true
    | Spec.Unsat | Spec.Out_of_budget -> false
  in
  Seq.iter
    (fun com ->
      if !found = None then
        Seq.iter
          (fun groups ->
            if !found = None then
              Seq.iter
                (fun si ->
                  if !found = None then ignore (try_choice com groups si))
                (Spec.bool_vectors (List.length groups)))
          (partitions h info_of))
    (Spec.com_candidates h);
  !found

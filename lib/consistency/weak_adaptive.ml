(* Weak adaptive consistency, Definition 3.3 — the paper's new condition,
   and the weakest one in its lattice (weaker than snapshot isolation,
   processor consistency, and even their union).

   The checker follows the definition's quantifier structure literally:

     exists a consistency partition P(alpha)          (compositions of the
                                                       begin order)
     exists a partition of groups into SI / PC sets   (boolean vectors)
     exists com(alpha)                                (committed + subset of
                                                       commit-pending)
     for each process p_i exist serialization points  (placement search)
       - SI group members: *T,gr and *T,w inside T's active interval (3)
       - PC group members: *T,gr immediately followed by *T,w, both inside
         the group's active interval (4) — modelled as one fused point
       - *T,gr before *T,w (1)
       - common-item write order agreed across views (2)    (Views search)
       - transactions executed by p_i legal in H_sigma_i (5)
*)

open Tm_base
open Tm_trace

type group = { members : Tid.t list; window : int * int }

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

(** Build one process view for a given partition/assignment/com choice. *)
let build_view (info_of : Tid.t -> Blocks.txn_info) (com : Tid.Set.t)
    (groups : group list) (si : bool array) ~view_pid : Views.view =
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
              let window = Checker_util.active_window i in
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
    Views.view_pid;
    problem =
      {
        Placement.points = Array.of_list (List.rev !points);
        prec = !prec;
        focus =
          (fun t -> Tid.Set.mem t com && (info_of t).Blocks.pid = view_pid);
        info_of;
        initial = (fun _ -> Value.initial);
      };
    w_point = (fun t -> Hashtbl.find_opt w_tbl t);
  }

(* Stop rule.  Every (com, partition, typing) choice shares one node
   budget, and a choice over a non-empty com(alpha) has at least one view,
   whose search spends a node before anything else.  Once one choice has
   run out of budget, every later choice over a non-empty com(alpha)
   would too, so the search stops there: the answer is Sat if an empty
   com(alpha) (no views, no search) is still to come, and Out_of_budget
   otherwise.  A budget that reaches zero just as the last choice is
   exhausted stops nothing, and the verdict is Unsat. *)
exception Spent

(** The (com, partition, typing) enumeration behind both [check] and
    [explain]: the verdict, and on Sat the first satisfying choice's
    witness. *)
let search ~budget ~com_filter (h : History.t) :
    Spec.verdict * Witness.t option =
  let tbl = Blocks.table h in
  let info_of tid = Hashtbl.find tbl tid in
  let parts = partitions h info_of in
  let bref = ref budget in
  (* the witness of the first satisfying (partition, typing) choice over
     [com]: its elements, view pids and common-writer pairs do not depend
     on the choice *)
  let witness_of com : Witness.t option =
    let tids = Tid.Set.elements com in
    let pids = Checker_util.view_pids info_of tids in
    let pairs = Views.common_writer_pairs info_of tids in
    let try_choice groups si =
      let views =
        List.map
          (fun pid -> build_view info_of com groups si ~view_pid:pid)
          pids
      in
      let wref = ref [] in
      match Views.solve_agreeing ~witness:wref ~budget:bref views ~pairs with
      | Spec.Sat ->
          Some
            {
              Witness.com = tids;
              (* on Sat, [wref] holds one order per view, in view order *)
              views =
                List.map2
                  (fun (v : Views.view) (pid, order) ->
                    {
                      Witness.view_pid = Some pid;
                      order =
                        List.map
                          (fun i ->
                            v.Views.problem.Placement.points.(i)
                              .Placement.block)
                          order;
                    })
                  views !wref;
              groups =
                Some
                  (List.mapi
                     (fun g group ->
                       (group.members, if si.(g) then `Si else `Pc))
                     groups);
            }
      | Spec.Unsat -> None
      | Spec.Out_of_budget -> raise Spent
    in
    Seq.find_map
      (fun groups ->
        Seq.find_map (try_choice groups)
          (Spec.bool_vectors (List.length groups)))
      parts
  in
  let rec go coms =
    match coms () with
    | Seq.Nil -> (Spec.Unsat, None)
    | Seq.Cons (com, rest) -> (
        match witness_of com with
        | Some w -> (Spec.Sat, Some w)
        | None -> go rest
        | exception Spent -> (
            match Seq.find Tid.Set.is_empty rest with
            | Some empty -> (Spec.Sat, witness_of empty)
            | None -> (Spec.Out_of_budget, None)))
  in
  go (Seq.filter com_filter (Spec.com_candidates h))

let check ?(budget = Spec.default_budget) ?(com_filter = fun _ -> true)
    (h : History.t) : Spec.verdict =
  fst (search ~budget ~com_filter h)

let checker : Spec.checker =
  { Spec.name = "weak-adaptive"; check = (fun ?budget h -> check ?budget h) }

(** The full witness — partition, group typing, com and per-process
    placements — when one exists. *)
let explain ?(budget = Spec.default_budget) (h : History.t) :
    Witness.t option =
  snd (search ~budget ~com_filter:(fun _ -> true) h)

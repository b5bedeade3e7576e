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
let partitions (h : History.t) (tbl : Blocks.t) : group list Seq.t =
  let order = History.begin_order h in
  Seq.map
    (List.map (fun members ->
         match members with
         | [] -> { members = []; window = (0, 0) }
         | first :: _ ->
             let lo = (Blocks.txn tbl first).Blocks.first_pos + 1 in
             let hi =
               List.fold_left
                 (fun acc t -> max acc (Blocks.txn tbl t).Blocks.last_pos)
                 0 members
             in
             { members; window = (lo, hi) }))
    (Spec.compositions order)

(* A com(alpha) member's points in an SI group, T_gr and T_w inside its
   own active interval, each absent when its block is empty.  They do not
   depend on the partition. *)
type member = { gr : Placement.point option; w : Placement.point option }

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
    witness.  Each choice builds one point array, shared by its views:
    the views differ only in whose reads they focus. *)
let search ~budget ~com_filter (h : History.t) :
    Spec.verdict * Witness.t option =
  let tbl = Blocks.table h in
  let parts = partitions h tbl in
  let order = Array.of_list (History.begin_order h) in
  let slot tid =
    let rec find j = if Tid.equal order.(j) tid then j else find (j + 1) in
    find 0
  in
  let bref = ref budget in
  (* the witness of the first satisfying (partition, typing) choice over
     [com]: its elements, view pids and common-writer pairs do not depend
     on the choice *)
  let witness_of com : Witness.t option =
    let tids = Tid.Set.elements com in
    let foci =
      List.map
        (fun pid -> (pid, fun (t : Blocks.txn) -> t.Blocks.pid = pid))
        (Checker_util.view_pids tbl tids)
    in
    let pair_slots =
      Array.of_list
        (List.map
           (fun (a, b) -> (slot a, slot b))
           (Views.common_writer_pairs tbl tids))
    in
    (* by begin-order slot; None outside com(alpha) *)
    let members =
      Array.map
        (fun tid ->
          if not (Tid.Set.mem tid com) then None
          else
            let t = Blocks.txn tbl tid in
            let lo, hi = Checker_util.active_window t in
            let point nonempty block =
              if nonempty then Some { Placement.block; lo; hi } else None
            in
            Some
              {
                gr = point (t.Blocks.greads <> [||]) (Blocks.Greads tid);
                w = point (t.Blocks.writes <> [||]) (Blocks.Wblock tid);
              })
        order
    in
    (* one choice's points, in group and member order, in [buf]; [w_at]
       holds the point carrying each slot's writes *)
    let buf =
      Array.make (2 * Array.length order)
        { Placement.block = Blocks.Whole (-1); lo = 0; hi = 0 }
    in
    let w_at = Array.make (Array.length order) (-1) in
    let try_choice groups si =
      let k = ref 0 and j = ref 0 and prec = ref [] in
      let add pt =
        buf.(!k) <- pt;
        incr k;
        !k - 1
      in
      List.iteri
        (fun g group ->
          let lo, hi = group.window in
          List.iter
            (fun tid ->
              (match members.(!j) with
              | None -> ()
              | Some m when si.(g) ->
                  (* snapshot-isolation group: separate points inside the
                     transaction's own active interval *)
                  let gr = match m.gr with Some p -> add p | None -> -1 in
                  let w = match m.w with Some p -> add p | None -> -1 in
                  w_at.(!j) <- w;
                  if gr >= 0 && w >= 0 then prec := (gr, w) :: !prec
              | Some m ->
                  (* processor-consistency group: adjacent gr/w, i.e. one
                     fused point, inside the group's active interval *)
                  if m.gr <> None || m.w <> None then begin
                    let p =
                      add { Placement.block = Blocks.Fused tid; lo; hi }
                    in
                    w_at.(!j) <- (if m.w <> None then p else -1)
                  end);
              incr j)
            group.members)
        groups;
      let points = Array.sub buf 0 !k and prec = !prec in
      let views =
        List.map
          (fun (pid, focus) ->
            {
              Views.view_pid = pid;
              problem = { Placement.points; prec; focus };
            })
          foci
      in
      let pairs = Array.map (fun (a, b) -> (w_at.(a), w_at.(b))) pair_slots in
      let wref = ref [] in
      match
        Views.solve_agreeing ~witness:wref ~budget:bref tbl views ~pairs
      with
      | Spec.Sat ->
          Some
            {
              Witness.com = tids;
              (* on Sat, [wref] holds one order per view, in view order *)
              views =
                List.map
                  (fun (pid, order) ->
                    {
                      Witness.view_pid = Some pid;
                      order =
                        List.map (fun i -> points.(i).Placement.block) order;
                    })
                  !wref;
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

(* Shared assembly helpers for the checkers. *)

open Tm_base
open Tm_trace

(** Try every com(alpha) candidate; Sat as soon as one works. *)
let exists_com (h : History.t) (f : Tid.Set.t -> Spec.verdict) : Spec.verdict
    =
  let hit_budget = ref false in
  let rec go seq =
    match seq () with
    | Seq.Nil -> if !hit_budget then Spec.Out_of_budget else Spec.Unsat
    | Seq.Cons (com, rest) -> (
        (* search-space telemetry: one com(alpha) candidate explored *)
        Tm_obs.Sink.incr "checker_com_candidates_total";
        match f com with
        | Spec.Sat -> Spec.Sat
        | Spec.Out_of_budget ->
            hit_budget := true;
            go rest
        | Spec.Unsat -> go rest)
  in
  go (Spec.com_candidates h)

(** Gap window spanning the active execution interval of a transaction. *)
let active_window (t : Blocks.txn) = (t.Blocks.first_pos + 1, t.Blocks.last_pos)

let unbounded (h : History.t) = (0, History.length h)

(** Precedence pairs (indices into [points]) induced by the real-time
    order [<alpha] restricted to [tids], given the point index of each
    transaction. *)
let realtime_prec (h : History.t) (tids : Tid.t list)
    (index_of : Tid.t -> int option) : (int * int) list =
  List.concat_map
    (fun t1 ->
      List.filter_map
        (fun t2 ->
          if (not (Tid.equal t1 t2)) && History.precedes h t1 t2 then
            match (index_of t1, index_of t2) with
            | Some a, Some b -> Some (a, b)
            | _ -> None
          else None)
        tids)
    tids

(** Same-process program-order pairs (Def. 3.2 condition 1a). *)
let program_order_prec (h : History.t) (tbl : Blocks.t) (tids : Tid.t list)
    (index_of : Tid.t -> int option) : (int * int) list =
  List.concat_map
    (fun t1 ->
      let pid = (Blocks.txn tbl t1).Blocks.pid in
      List.filter_map
        (fun t2 ->
          if
            (not (Tid.equal t1 t2))
            && (Blocks.txn tbl t2).Blocks.pid = pid
            && History.precedes h t1 t2
          then
            match (index_of t1, index_of t2) with
            | Some a, Some b -> Some (a, b)
            | _ -> None
          else None)
        tids)
    tids

(** Processes executing at least one transaction of [tids]. *)
let view_pids (tbl : Blocks.t) (tids : Tid.t list) : int list =
  List.sort_uniq compare
    (List.map (fun t -> (Blocks.txn tbl t).Blocks.pid) tids)

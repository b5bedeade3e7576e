(* Contention on base objects (Section 3): alpha|T1 and alpha|T2 contend on
   o if both contain a primitive on o and at least one of those primitives
   is non-trivial. *)

open Tm_base

type access_summary = {
  tid : Tid.t;
  objects : bool Oid.Map.t;  (** oid -> applied a non-trivial primitive? *)
}

(* The per-transaction (Tid, Oid) footprint is accumulated into a map, so
   repeated accesses to the same object collapse into one pair; the final
   summaries are sorted by [Tid.compare] so callers (and lint witnesses)
   see the same order on every run regardless of hash-table iteration. *)
let add_access (tbl : (Tid.t, bool Oid.Map.t) Hashtbl.t) tid oid prim =
  let m = Option.value ~default:Oid.Map.empty (Hashtbl.find_opt tbl tid) in
  let prev = Option.value ~default:false (Oid.Map.find_opt oid m) in
  Hashtbl.replace tbl tid (Oid.Map.add oid (prev || Primitive.non_trivial prim) m)

let summaries_of (tbl : (Tid.t, bool Oid.Map.t) Hashtbl.t) =
  Hashtbl.fold (fun tid objects acc -> { tid; objects } :: acc) tbl []
  |> List.sort (fun s1 s2 -> Tid.compare s1.tid s2.tid)

(* An index walk of the window's columns: no entry records or list
   materialized. *)
let summarize (w : Access_log.window) : access_summary list =
  let tbl : (Tid.t, bool Oid.Map.t) Hashtbl.t = Hashtbl.create 16 in
  let { Access_log.log; pos; len; _ } = w in
  for p = pos to pos + len - 1 do
    let ti = Access_log.tid_int_at log p in
    if ti >= 0 then
      add_access tbl (Tid.v ti) (Access_log.oid_at log p)
        (Access_log.prim_at log p)
  done;
  summaries_of tbl

(** Objects on which two transactions contend in the log, sorted by
    [Oid.compare] and deduplicated, so contention witnesses are stable
    across runs. *)
let contended_objects (s1 : access_summary) (s2 : access_summary) :
    Oid.t list =
  Oid.Map.fold
    (fun oid nt1 acc ->
      match Oid.Map.find_opt oid s2.objects with
      | Some nt2 when nt1 || nt2 -> oid :: acc
      | Some _ | None -> acc)
    s1.objects []
  |> List.sort_uniq Oid.compare

type contention = { t1 : Tid.t; t2 : Tid.t; objects : Oid.t list }

(** Every contending pair of transactions in the log, ordered by
    [(t1, t2)] with [t1 < t2]. *)
let contentions_of (summaries : access_summary list) : contention list =
  let rec go acc = function
    | [] -> acc
    | s1 :: rest ->
        let acc =
          List.fold_left
            (fun acc s2 ->
              match contended_objects s1 s2 with
              | [] -> acc
              | objects -> { t1 = s1.tid; t2 = s2.tid; objects } :: acc)
            acc rest
        in
        go acc rest
  in
  List.rev (go [] summaries)

let all_contentions (w : Access_log.window) : contention list =
  contentions_of (summarize w)

(* The multi-view search with write-order agreement as it stood before
   the common-writer pairs were indexed: a signature is a Pair_map from
   each pair of transactions to its direction, solutions are deduplicated
   by its bindings, and each view runs on Placement_ref.  Test-only: the
   slow oracle that test_consistency checks Views.solve_agreeing against,
   and the view search of Weak_adaptive_ref. *)

open Core

type view = {
  view_pid : int;
  problem : Placement_ref.problem;
  w_point : Tid.t -> int option;
      (** index of the point carrying the transaction's writes *)
}

(* a signature maps each common-writer pair to its direction *)
module Pair_map = Map.Make (struct
  type t = Tid.t * Tid.t

  let compare = compare
end)

let signature (v : view) (pairs : (Tid.t * Tid.t) list) (order : int list) :
    bool Pair_map.t =
  let pos = Hashtbl.create 16 in
  List.iteri (fun i pt -> Hashtbl.replace pos pt i) order;
  List.fold_left
    (fun acc (a, b) ->
      match (v.w_point a, v.w_point b) with
      | Some pa, Some pb -> (
          match (Hashtbl.find_opt pos pa, Hashtbl.find_opt pos pb) with
          | Some ia, Some ib -> Pair_map.add (a, b) (ia < ib) acc
          | _ -> acc)
      | _ -> acc)
    Pair_map.empty pairs

let constraints_of_signature (v : view) (sg : bool Pair_map.t) :
    (int * int) list =
  Pair_map.fold
    (fun (a, b) a_first acc ->
      match (v.w_point a, v.w_point b) with
      | Some pa, Some pb -> (if a_first then (pa, pb) else (pb, pa)) :: acc
      | _ -> acc)
    sg []

let solve_agreeing ?(witness : (int * int list) list ref option)
    ~(budget : int ref) (views : view list) ~(pairs : (Tid.t * Tid.t) list) :
    Spec.verdict =
  let rec go views (committed_sig : bool Pair_map.t) acc : Spec.verdict =
    match views with
    | [] ->
        (match witness with Some r -> r := List.rev acc | None -> ());
        Spec.Sat
    | v :: rest -> (
        let extra = constraints_of_signature v committed_sig in
        let problem =
          {
            v.problem with
            Placement_ref.prec = v.problem.Placement_ref.prec @ extra;
          }
        in
        let seen = Hashtbl.create 16 in
        let result = ref Spec.Unsat in
        let outcome =
          Placement_ref.solve ~budget problem ~on_solution:(fun order ->
              let sg = signature v pairs order in
              let key = Pair_map.bindings sg in
              if Hashtbl.mem seen key then false
              else begin
                Hashtbl.replace seen key ();
                (* merge: committed directions stay; new pairs added *)
                let merged =
                  Pair_map.union (fun _ dir _ -> Some dir) committed_sig sg
                in
                match go rest merged ((v.view_pid, order) :: acc) with
                | Spec.Sat ->
                    result := Spec.Sat;
                    true
                | Spec.Out_of_budget ->
                    if !result = Spec.Unsat then result := Spec.Out_of_budget;
                    false
                | Spec.Unsat -> false
              end)
        in
        match outcome with
        | Placement.Stopped | Placement.Exhausted -> !result
        | Placement.Budget_exceeded ->
            if !result = Spec.Unsat then Spec.Out_of_budget else !result)
  in
  go views Pair_map.empty []

(** Unordered pairs of distinct transactions whose write sets intersect. *)
let common_writer_pairs (info_of : Tid.t -> Blocks.txn_info)
    (tids : Tid.t list) : (Tid.t * Tid.t) list =
  let rec go = function
    | [] -> []
    | a :: rest ->
        List.filter_map
          (fun b ->
            let ia = info_of a and ib = info_of b in
            if
              not
                (Item.Set.is_empty
                   (Item.Set.inter ia.Blocks.write_set ib.Blocks.write_set))
            then Some (a, b)
            else None)
          rest
        @ go rest
  in
  go tids

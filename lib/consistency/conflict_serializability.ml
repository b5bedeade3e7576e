(* Conflict serializability (the classical polynomial check, Papadimitriou
   79 / Bernstein et al.): build the precedence graph over committed (and
   chosen commit-pending) transactions — an edge Ti -> Tj whenever an
   operation of Ti precedes a conflicting operation of Tj (same item, at
   least one write) — and test acyclicity.

   Unlike the search-based checkers, this one is value-agnostic: it looks
   only at which operations happened in which order.  On histories
   *generated by an execution* (where read values really come from the
   preceding writes) conflict serializability implies the value-based
   serializability checker's verdict — a cross-validation property the
   test suite exercises on TM runs.  On arbitrary hand-written histories
   the implication does not hold (a read may return a value nobody wrote),
   so this checker is deliberately NOT part of the paper's lattice
   ({!Checkers.edges}). *)

open Tm_base
open Tm_trace

type op = { pos : int; tid : Tid.t; item : Item.t; is_write : bool }

(** Successful operations of the given transactions, in history order. *)
let ops_of (h : History.t) (com : Tid.Set.t) : op list =
  let acc = ref [] in
  List.iteri
    (fun pos e ->
      match e with
      | Event.Resp
          { tid; op = Event.Read x; resp = Event.R_value _; _ }
        when Tid.Set.mem tid com ->
          acc := { pos; tid; item = x; is_write = false } :: !acc
      | Event.Resp { tid; op = Event.Write (x, _); resp = Event.R_ok; _ }
        when Tid.Set.mem tid com ->
          acc := { pos; tid; item = x; is_write = true } :: !acc
      | _ -> ())
    (History.to_list h);
  List.rev !acc

(** The precedence (conflict) graph as an adjacency map. *)
let precedence_graph (h : History.t) (com : Tid.Set.t) :
    (Tid.t, Tid.Set.t) Hashtbl.t =
  let ops = ops_of h com in
  let graph : (Tid.t, Tid.Set.t) Hashtbl.t = Hashtbl.create 16 in
  let add_edge a b =
    if not (Tid.equal a b) then
      Hashtbl.replace graph a
        (Tid.Set.add b
           (Option.value ~default:Tid.Set.empty (Hashtbl.find_opt graph a)))
  in
  let rec pairs = function
    | [] -> ()
    | o1 :: rest ->
        List.iter
          (fun o2 ->
            if
              Item.equal o1.item o2.item
              && (o1.is_write || o2.is_write)
              && not (Tid.equal o1.tid o2.tid)
            then add_edge o1.tid o2.tid)
          rest;
        pairs rest
  in
  pairs ops;
  graph

let acyclic (graph : (Tid.t, Tid.Set.t) Hashtbl.t) : bool =
  let color : (Tid.t, [ `Grey | `Black ]) Hashtbl.t = Hashtbl.create 16 in
  let exception Cycle in
  let rec visit v =
    match Hashtbl.find_opt color v with
    | Some `Black -> ()
    | Some `Grey -> raise Cycle
    | None ->
        Hashtbl.replace color v `Grey;
        Tid.Set.iter visit
          (Option.value ~default:Tid.Set.empty (Hashtbl.find_opt graph v));
        Hashtbl.replace color v `Black
  in
  try
    Hashtbl.iter (fun v _ -> visit v) graph;
    true
  with Cycle -> false

let check ?(budget = Spec.default_budget) (h : History.t) : Spec.verdict =
  ignore budget;
  let rec go seq =
    match seq () with
    | Seq.Nil -> Spec.Unsat
    | Seq.Cons (com, rest) ->
        if acyclic (precedence_graph h com) then Spec.Sat else go rest
  in
  go (Spec.com_candidates h)

let checker : Spec.checker = { Spec.name = "conflict-serializability"; check }

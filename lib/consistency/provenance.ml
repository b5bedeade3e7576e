(* Verdict provenance: turn a bare [Unsat] into a minimal witness — which
   transactions are jointly inconsistent, which axiom they violate, and
   which access-log steps belong to them — so `pcl_tm explain` can
   highlight the offending steps on a rendered timeline.

   The core is found greedily: starting from all transactions, drop each
   one whose removal keeps the restricted history Unsat.  The result is a
   locally-minimal unsat core (removing any single remaining transaction
   makes the history satisfiable), which for the catalogue histories and
   fuzz counterexamples is the conflicting pair or triple itself. *)

open Tm_base
open Tm_trace

type t = {
  source : string;  (** checker name *)
  verdict : string;  (** always ["unsat"] here *)
  axiom : string;  (** the violated condition, in words *)
  txns : Tid.t list;  (** locally-minimal unsat core *)
  steps : int list;  (** global indices of the core's steps *)
}

(* The condition each checker decides, phrased as the axiom an Unsat
   history violates.  Keyed by checker name so detectors stay decoupled
   from checker implementations. *)
let axiom_of = function
  | "opacity(final-state)" ->
      "no serialization of com(alpha) (aborted reads included) with \
       serialization points inside transactional intervals is legal \
       (final-state opacity)"
  | "strict-serializability" ->
      "no choice of com(alpha) and of serialization points inside the \
       transactional intervals induces a legal sequential history \
       (strict serializability, Def. 3.1)"
  | "serializability" ->
      "no permutation of com(alpha) induces a legal sequential history \
       (serializability)"
  | "conflict-serializability" ->
      "the conflict graph over committed transactions has a cycle \
       (conflict serializability)"
  | "causal-serializability" ->
      "no causally-consistent per-process serialization explains every \
       process's reads (causal serializability)"
  | "processor-consistency" ->
      "two processes observe the committed writes in incompatible orders \
       (processor consistency)"
  | "pram" ->
      "no per-process merge of program order and observed writes explains \
       all reads (PRAM)"
  | "snapshot-isolation" ->
      "no assignment of begin-time snapshots with disjoint concurrent \
       write-sets explains the history (snapshot isolation)"
  | "snapshot-isolation(ei)" ->
      "no early-inclusion snapshot assignment explains the history \
       (snapshot isolation, early inclusion)"
  | "weak-adaptive" ->
      "no begin-ordered partition of the transactions into SI-consistent \
       and PC-consistent groups is legal (weak adaptive consistency, \
       Def. 3.3)"
  | name -> Printf.sprintf "the history violates %s" name

(** [unsat_core checker h] is [Some core] iff [checker] rejects [h];
    [core] is then a locally-minimal transaction subset that it still
    rejects.  [Out_of_budget] never shrinks the core: a removal is kept
    only on a definite [Unsat]. *)
let unsat_core ?budget (checker : Spec.checker) (h : History.t) :
    Tid.t list option =
  match checker.Spec.check ?budget h with
  | Spec.Sat | Spec.Out_of_budget -> None
  | Spec.Unsat ->
      let core = ref (History.txns h) in
      List.iter
        (fun tid ->
          let without = List.filter (fun t -> not (Tid.equal t tid)) !core in
          if without <> [] then
            match
              checker.Spec.check ?budget
                (History.restrict h (Tid.Set.of_list without))
            with
            | Spec.Unsat -> core := without
            | Spec.Sat | Spec.Out_of_budget -> ())
        (History.txns h);
      Some !core

let of_unsat ?budget ?log (checker : Spec.checker) (h : History.t) :
    t option =
  match unsat_core ?budget checker h with
  | None -> None
  | Some core ->
      let steps =
        match log with
        | None -> []
        | Some { Access_log.log; pos; len; first } ->
            let steps = ref [] in
            for k = len - 1 downto 0 do
              if List.mem (Access_log.tid_int_at log (pos + k)) core then
                steps := (first + k) :: !steps
            done;
            !steps
      in
      Some
        {
          source = checker.Spec.name;
          verdict = "unsat";
          axiom = axiom_of checker.Spec.name;
          txns = core;
          steps;
        }

let to_flight (p : t) : Flight.verdict =
  {
    Flight.source = p.source;
    verdict = p.verdict;
    axiom = p.axiom;
    witness_txns = p.txns;
    witness_steps = p.steps;
  }

let pp ppf (p : t) =
  Fmt.pf ppf "%s: %s@\n  witness: {%a}%s@\n  axiom: %s" p.source p.verdict
    Fmt.(list ~sep:(any ", ") Tid.pp_name)
    p.txns
    (match p.steps with
    | [] -> ""
    | steps ->
        Printf.sprintf " at steps %s"
          (String.concat "," (List.map string_of_int steps)))
    p.axiom

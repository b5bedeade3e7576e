(* Witnesses: when a checker answers Sat, the serialization it found —
   com(alpha), the per-view block orders, and (for weak adaptive
   consistency) the partition and group typing.  Witnesses are replayable:
   [valid] re-evaluates the blocks and confirms legality, which the test
   suite uses to keep checkers honest. *)

open Tm_base
open Tm_trace

type view = { view_pid : int option; order : Blocks.block list }

type t = {
  com : Tid.t list;
  views : view list;
  groups : (Tid.t list * [ `Si | `Pc ]) list option;
      (** weak adaptive consistency only: the partition with each group's
          typing *)
}

let pp_view ppf (v : view) =
  (match v.view_pid with
  | Some pid -> Fmt.pf ppf "  sigma_p%d: " pid
  | None -> Fmt.pf ppf "  sigma: ");
  Fmt.(list ~sep:(any " < ") Blocks.pp_block) ppf v.order

let pp ppf (w : t) =
  Fmt.pf ppf "com = {%s}"
    (String.concat ", " (List.map Tid.name w.com));
  (match w.groups with
  | None -> ()
  | Some groups ->
      Fmt.pf ppf "@\npartition:";
      List.iter
        (fun (members, typ) ->
          Fmt.pf ppf " [%s:%s]"
            (String.concat "," (List.map Tid.name members))
            (match typ with `Si -> "SI" | `Pc -> "PC"))
        groups);
  List.iter (fun v -> Fmt.pf ppf "@\n%a" pp_view v) w.views

(** Re-evaluate a view's blocks in order against the history: all reads of
    the focused transactions must be legal. *)
let view_legal (h : History.t) ~(focus : Tid.t -> bool) (v : view) : bool =
  let infos = List.map (fun tid -> (tid, Blocks.info h tid)) (History.txns h) in
  let info_of tid = List.assoc tid infos in
  let rec go state = function
    | [] -> true
    | b :: rest -> (
        match Blocks.eval ~focus info_of state b with
        | Some state' -> go state' rest
        | None -> false)
  in
  go Item.Map.empty v.order

(** Validity of a whole witness: every view must make its focused
    transactions legal.  Single-view witnesses focus every transaction in
    com; per-process views focus that process's transactions. *)
let valid (h : History.t) (w : t) : bool =
  let com = Tid.Set.of_list w.com in
  List.for_all
    (fun (v : view) ->
      let focus tid =
        Tid.Set.mem tid com
        &&
        match v.view_pid with
        | None -> true
        | Some pid -> History.pid_of_txn h tid = Some pid
      in
      view_legal h ~focus v)
    w.views

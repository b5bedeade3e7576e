(* The standard explore workload: a conflicting writer/reader pair —
   T1 reads x then writes x and y, T2 reads x and y — whose bounded
   interleaving space is the repo's stock exploration benchmark.  Every
   front end that sweeps it (`pcl_tm explore`, the benchmark's explore
   workload, the engine-equivalence tests, the CI smoke job) goes through
   this one module so they are guaranteed to be measuring the same
   search. *)

open Tm_base
open Tm_runtime
open Tm_impl

let x = Item.v "x"
let y = Item.v "y"

let specs : Static_txn.spec list =
  [
    {
      Static_txn.tid = Tid.v 1;
      pid = 1;
      reads = [ x ];
      writes = [ (x, Value.int 1); (y, Value.int 1) ];
    };
    { Static_txn.tid = Tid.v 2; pid = 2; reads = [ x; y ]; writes = [] };
  ]

let pids = List.map (fun s -> s.Static_txn.pid) specs
let data_sets = Static_txn.data_sets specs

(* one outcome table, shared by every world of the sweep *)
let setup (impl : Tm_intf.impl) : Sim.setup =
  Static_txn.setup specs impl (Hashtbl.create 4)

(* Histories compared without their events' step stamps ([at]): no
   consistency checker reads a stamp, so two executions whose events
   agree on everything else get the same verdicts.  The hash mixes every
   event's tags, ints and item names in order, with no polymorphic
   [Hashtbl.hash] per event: on the event list, the stdlib's reads only
   its first few meaningful words, under which nearly every history of
   one sweep would collide. *)
module Key = struct
  open Tm_trace

  type t = History.t

  let equal_event (a : Event.t) (b : Event.t) =
    match (a, b) with
    | Inv a, Inv b ->
        a.tid = b.tid && a.pid = b.pid && Event.equal_op a.op b.op
    | Resp a, Resp b ->
        a.tid = b.tid && a.pid = b.pid && Event.equal_op a.op b.op
        && Event.equal_resp a.resp b.resp
    | Inv _, Resp _ | Resp _, Inv _ -> false

  let equal h h' =
    let n = History.length h in
    n = History.length h'
    &&
    let rec from i =
      i = n
      || (equal_event (History.get h i) (History.get h' i) && from (i + 1))
    in
    from 0

  let mix acc x = (acc * 31) + x
  let mix_name acc (s : string) =
    String.fold_left (fun a c -> mix a (Char.code c)) acc s

  let rec mix_value acc (v : Value.t) =
    match v with
    | VUnit -> mix acc 0
    | VBool b -> mix (mix acc 1) (Bool.to_int b)
    | VInt n -> mix (mix acc 2) n
    | VStr s -> mix_name (mix acc 3) s
    | VPair (a, b) -> mix_value (mix_value (mix acc 4) a) b
    | VList l -> List.fold_left mix_value (mix acc 5) l

  let mix_op acc (op : Event.op) =
    match op with
    | Begin -> mix acc 0
    | Read x -> mix_name (mix acc 1) (Item.name x)
    | Write (x, v) -> mix_value (mix_name (mix acc 2) (Item.name x)) v
    | Try_commit -> mix acc 3
    | Abort_call -> mix acc 4

  let mix_resp acc (r : Event.resp) =
    match r with
    | R_ok -> mix acc 0
    | R_value v -> mix_value (mix acc 1) v
    | R_committed -> mix acc 2
    | R_aborted -> mix acc 3

  let hash h =
    let acc = ref (History.length h) in
    for i = 0 to History.length h - 1 do
      acc :=
        match History.get h i with
        | Inv { tid; pid; op; at = _ } ->
            mix_op (mix (mix (mix !acc 0) tid) pid) op
        | Resp { tid; pid; op; resp; at = _ } ->
            mix_resp (mix_op (mix (mix (mix !acc 1) tid) pid) op) resp
    done;
    !acc
end

module Unstamped = struct
  include Hashtbl.Make (Key)

  let hash = Key.hash
end

(** Sweep the workload's interleavings on one TM, classifying every
    complete execution by the strongest consistency condition it
    satisfies ("none" if it satisfies nothing at all).  Returns the
    profile — (condition, executions) rows sorted by condition name —
    and the search statistics.  [on_execution] additionally sees each
    execution with its classification (the `pcl_tm explore` front end
    dumps and lints from it).  Each distinct history, compared without
    its step stamps, is judged once per call.  Bounds default to the
    stock sweep's: max_steps 80, max_nodes 300_000. *)
let run ?(max_steps = 80) ?(max_nodes = 300_000) ?max_executions
    ?(por = false) ?(on_execution = fun ~strongest:_ _ -> ())
    (impl : Tm_intf.impl) : (string * int) list * Explorer.stats =
  let profiles = Hashtbl.create 8 in
  let judged = Unstamped.create 64 in
  let stats =
    Explorer.explore ~max_nodes ~max_steps ?max_executions ~por (setup impl)
      ~pids
      ~on_execution:(fun r ->
        let h = r.Sim.history in
        let strongest =
          match Unstamped.find_opt judged h with
          | Some s -> s
          | None ->
              let s =
                match Tm_consistency.Checkers.satisfied h with
                | s :: _ -> s
                | [] -> "none"
              in
              Unstamped.add judged h s;
              s
        in
        on_execution ~strongest r;
        Hashtbl.replace profiles strongest
          (1 + Option.value ~default:0 (Hashtbl.find_opt profiles strongest)))
  in
  let rows = Hashtbl.fold (fun k v acc -> (k, v) :: acc) profiles [] in
  (List.sort compare rows, stats)

(** One sweep as a `pcl_tm explore --json` row. *)
let row_json ~tm ~seed (profiles, (stats : Explorer.stats)) =
  let open Tm_obs.Obs_json in
  Obj
    [
      Tm_obs.Schema.field;
      ("type", String "explore");
      ("tm", String tm);
      ("seed", Int seed);
      ("executions", Int stats.Explorer.executions);
      ("nodes", Int stats.Explorer.nodes);
      ("sleep_pruned", Int stats.Explorer.sleep_pruned);
      ("replays", Int stats.Explorer.replays);
      ("truncated", Bool stats.Explorer.truncated);
      ("profiles", Obj (List.map (fun (name, n) -> (name, Int n)) profiles));
    ]

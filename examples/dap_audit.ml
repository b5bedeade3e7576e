(* Disjoint-access-parallelism audit: run three workloads against every TM
   and report, from the step-level access logs, exactly which transactions
   contend on which base objects and whether strict / conflict-graph DAP
   survive.

   Workloads:
   - disjoint : two transactions on disjoint items, run sequentially
   - chain    : Ta writes x, Tb writes x+y (suspended mid-run), Tc writes y
   - conflict : two transactions racing on the same item

     dune exec examples/dap_audit.exe
*)

open Core

let x = Item.v "x"
let y = Item.v "y"

let spec tid pid reads writes =
  { Static_txn.tid = Tid.v tid; pid; reads;
    writes = List.map (fun (i, v) -> (i, Value.int v)) writes }

let run impl specs schedule =
  Sim.replay ~budget:2_000 (Static_txn.setup specs impl (Hashtbl.create 8))
    schedule

let audit impl name specs schedule =
  let (module M : Tm_intf.S) = impl in
  let r = run impl specs schedule in
  let data_sets = Static_txn.data_sets specs in
  let log = Access_log.whole (Memory.log r.Sim.mem) in
  let contentions = Contention.all_contentions log in
  let strict = Strict_dap.violations ~data_sets log in
  let graph = Graph_dap.violations ~data_sets log in
  let name_of oid = Memory.name_of r.Sim.mem oid in
  Format.printf "  %-10s steps=%-4d contentions=%d strictDAP=%s graphDAP=%s@."
    name (Memory.step_count r.Sim.mem) (List.length contentions)
    (if strict = [] then "ok" else "VIOLATED")
    (if graph = [] then "ok" else "VIOLATED");
  List.iter
    (fun (c : Contention.contention) ->
      Format.printf "      %s x %s contend on: %s%s@." (Tid.name c.t1)
        (Tid.name c.t2)
        (String.concat ", " (List.map name_of c.Contention.objects))
        (if Conflict.conflict data_sets c.t1 c.t2 then "  (conflicting)"
         else "  (DISJOINT!)"))
    contentions

let () =
  List.iter
    (fun impl ->
      let (module M : Tm_intf.S) = impl in
      Format.printf "== %s — %s@." M.name M.describe;
      (* disjoint *)
      let disjoint =
        [ spec 1 1 [ x ] [ (x, 1) ]; spec 2 2 [ y ] [ (y, 1) ] ]
      in
      audit impl "disjoint" disjoint
        [ Schedule.Until_done 1; Schedule.Until_done 2 ];
      (* chain *)
      let chain =
        [ spec 1 1 [] [ (x, 1) ];
          spec 2 2 [] [ (x, 2); (y, 2) ];
          spec 3 3 [] [ (y, 3) ] ]
      in
      let solo = run impl chain [ Schedule.Until_done 2 ] in
      let n = solo.Sim.steps_of 2 in
      audit impl "chain" chain
        [ Schedule.Steps (2, max 0 (n - 1)); Schedule.Until_done 1;
          Schedule.Until_done 3 ];
      (* conflict *)
      let conflict =
        [ spec 1 1 [ x ] [ (x, 1) ]; spec 2 2 [ x ] [ (x, 2) ] ]
      in
      audit impl "conflict" conflict
        [ Schedule.Steps (1, 3); Schedule.Until_done 2;
          Schedule.Until_done 1 ];
      Format.printf "@.")
    Registry.all

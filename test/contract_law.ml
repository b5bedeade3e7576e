(* The agreement law: every TM's declared contract ([Tm_intf.contract])
   against what the workbench observes of it.  A TM claims all three legs
   of the triangle when it declares strict DAP, a class that is not
   blocking and a condition that implies weak adaptive consistency; the
   PCL theorem says such a claim cannot hold, so the law expects the
   consistency leg to fail exactly there.

   The law has five rows, each one case per TM:
   - condition: the declared condition names a registered checker;
   - liveness: [Liveness_class.classify] returns exactly the declared
     class (test_probe "classes");
   - verdict: [Pcl_verdict.assess] gives P iff strictly DAP, L iff not
     blocking, and C iff the condition implies weak adaptive consistency
     and the TM does not claim all three (test_pcl "verdict");
   - explore: the stock DPOR sweep shows a "none" profile iff the TM
     claims all three, and every other profile implies the declared
     condition;
   - tables: the corner entries of the observation tables agree with the
     declaration.
   The condition, explore and tables rows run as test_pcl "agreement". *)

open Core

let contract (module M : Tm_intf.S) = M.contract

(* [implies a b]: a is b, or reaches b through [Checkers.edges] *)
let rec implies a b =
  a = b || List.exists (fun (s, w) -> s = a && implies w b) Checkers.edges

let weak_adaptive (c : Tm_intf.contract) =
  implies c.Tm_intf.condition "weak-adaptive"

let blocking (c : Tm_intf.contract) = c.Tm_intf.liveness = Tm_intf.Blocking

let claims_all_three (c : Tm_intf.contract) =
  c.Tm_intf.strict_dap && (not (blocking c)) && weak_adaptive c

(* the names of the TMs whose contract satisfies [p], in registry order *)
let names p =
  List.filter_map
    (fun impl -> if p (contract impl) then Some (Registry.name impl) else None)
    Registry.all

let strict_dap (c : Tm_intf.contract) = c.Tm_intf.strict_dap

(* the legs the verdict must hold: parallelism, consistency, liveness *)
let legs c =
  ( c.Tm_intf.strict_dap,
    weak_adaptive c && not (claims_all_three c),
    not (blocking c) )

let check name what expected got =
  Alcotest.(check bool) (Printf.sprintf "%s: %s" name what) expected got

let condition_row impl =
  check (Registry.name impl) "condition names a checker" true
    (Checkers.find (contract impl).Tm_intf.condition <> None)

let explore_row impl =
  let name = Registry.name impl and c = contract impl in
  let profiles, _ = Explore_sweep.run ~por:true impl in
  check name "a none profile iff it claims all three" (claims_all_three c)
    (List.mem_assoc "none" profiles);
  List.iter
    (fun (p, _) ->
      if p <> "none" then
        check name
          (Printf.sprintf "profile %s implies %s" p c.Tm_intf.condition)
          true
          (implies p c.Tm_intf.condition))
    profiles

(* the observation tables record what the probes and passes see; their
   corner entries must say what the declaration says, and every TM has
   entries in all three *)
let tables_row impl =
  let name = Registry.name impl and c = contract impl in
  (match Figure_lint.expected name with
  | None -> Alcotest.failf "%s: no Figure_lint expectation" name
  | Some e ->
      check name "the stall probe stalls iff blocking" (blocking c)
        e.Figure_lint.stalls;
      check name "the construction blocks iff blocking" (blocking c)
        (e.Figure_lint.build = `Blocks);
      check name "no flip iff the condition is weaker than weak adaptive"
        (not (weak_adaptive c))
        (e.Figure_lint.build = `No_flip));
  check name "strict-dap findings expected iff not strictly DAP"
    (not c.Tm_intf.strict_dap)
    (List.mem "strict-dap" (Lints.expected_for (Some name)));
  check name "cost expectations recorded" true
    (List.exists (fun (e : Cost_run.expect) -> e.Cost_run.tm = name)
       Cost_run.table)

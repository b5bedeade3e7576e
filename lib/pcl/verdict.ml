(* The triangle verdict: for each TM, which of Parallelism / Consistency /
   Liveness hold, with concrete evidence for every violation.  This is the
   executable form of the paper's Section-5 discussion — every
   implementation must lose at least one leg, and the harness shows which.

   Evidence sources:
   - the construction itself (critical-step search failures),
   - strict-DAP violations on the beta/beta' access logs and on two
     dedicated scenarios (a disjoint pair, and the 3-transaction chain that
     exposes status-word contention in DSTM-style algorithms),
   - obstruction-freedom violations and solo-progress failures,
   - figure-table mismatches, cross-checked by running the weak-adaptive
     checker on a restricted sub-history (the mechanized delta arguments).
*)

open Tm_base
open Tm_runtime
open Tm_impl
open Tm_trace

type leg = Holds | Violated of string

let pp_leg ppf = function
  | Holds -> Fmt.string ppf "holds"
  | Violated why -> Fmt.pf ppf "VIOLATED — %s" why

type t = {
  impl_name : string;
  parallelism : leg;
  consistency : leg;
  liveness : leg;
  notes : string list;
}

(* ------------------------------------------------------------------ *)
(* Dedicated scenarios *)

let x_item = Item.v "x"
let y_item = Item.v "y"

let strict_dap_violations impl specs schedule =
  let sim =
    Sim.replay ~budget:2_000 (Static_txn.setup specs impl (Hashtbl.create 8))
      schedule
  in
  Tm_dap.Strict_dap.violations
    ~data_sets:(Static_txn.data_sets specs)
    (Access_log.whole (Memory.log sim.Sim.mem))

(** Two fully disjoint transactions run one after the other: any contention
    at all (e.g. on a global clock) refutes strict DAP. *)
let disjoint_pair_violations impl =
  strict_dap_violations impl
    [
      { Static_txn.tid = Tid.v 11; pid = 11; reads = [ x_item ];
        writes = [ (x_item, Value.int 1) ] };
      { Static_txn.tid = Tid.v 12; pid = 12; reads = [ y_item ];
        writes = [ (y_item, Value.int 1) ] };
    ]
    [ Schedule.Until_done 11; Schedule.Until_done 12 ]

(** The chain scenario: Ta writes x, Tb writes x and y, Tc writes y.  Tb is
    suspended mid-transaction; Ta and Tc (mutually disjoint) then both have
    to deal with Tb — DSTM-style ownership makes them contend on Tb's
    status word. *)
let chain_violations impl =
  let specs =
    [
      { Static_txn.tid = Tid.v 11; pid = 11; reads = [];
        writes = [ (x_item, Value.int 1) ] };
      { Static_txn.tid = Tid.v 12; pid = 12; reads = [];
        writes = [ (x_item, Value.int 2); (y_item, Value.int 2) ] };
      { Static_txn.tid = Tid.v 13; pid = 13; reads = [];
        writes = [ (y_item, Value.int 3) ] };
    ]
  in
  (* how many solo steps does Tb need? *)
  let solo =
    Sim.replay ~budget:2_000 (Static_txn.setup specs impl (Hashtbl.create 8))
      [ Schedule.Until_done 12 ]
  in
  let n = solo.Sim.steps_of 12 in
  strict_dap_violations impl specs
    [ Schedule.Steps (12, max 0 (n - 1)); Schedule.Until_done 11;
      Schedule.Until_done 13 ]

(** Solo progress under a suspended conflicting enemy, read off the
    liveness classifier's points: Ta must finish solo, commit or abort,
    wherever Tb (writes x,y) is suspended, if the TM is
    obstruction-free. *)
let suspended_enemy_progress impl : (unit, string) result =
  let module P = Tm_probe.Solo_probe in
  match
    Seq.find_map
      (fun (p : P.point) ->
        match p.outcome with
        | P.Commit | P.Abort -> None
        | P.Unfinished stop -> Some (p.k, stop))
      P.(points (scan impl Tm_probe.Liveness_class.suspended_enemy))
  with
  | None -> Ok ()
  | Some (k, Schedule.Budget_exhausted _) ->
      Error
        (Printf.sprintf
           "T_a cannot finish solo while a conflicting transaction is \
            suspended after %d steps (blocking)"
           k)
  | Some (_, Schedule.Crashed (_, e)) -> Error (Printexc.to_string e)
  | Some (_, Schedule.Completed) -> Error "T_a did not run"

(* ------------------------------------------------------------------ *)
(* Consistency evidence via the weak-adaptive checker *)

let writers_of_item (x : Item.t) : Tid.t list =
  List.filter_map
    (fun (s : Static_txn.spec) ->
      if List.mem_assoc x s.writes then Some s.tid else None)
    Txns.specs

(** Restrict a history to the transactions relevant to a failed check and
    ask the weak-adaptive checker; Unsat is hard evidence that no WAC
    serialization exists. *)
let wac_refutes (h : History.t)
    (c : Claims.value_check) : bool =
  let keep =
    Tid.Set.of_list
      ((c.Claims.tid :: writers_of_item c.Claims.item)
      @ [ Tid.v 1; Tid.v 2 ])
  in
  let sub = History.restrict h keep in
  match Tm_consistency.Weak_adaptive.check ~budget:2_000_000 sub with
  | Tm_consistency.Spec.Unsat -> true
  | Tm_consistency.Spec.Sat | Tm_consistency.Spec.Out_of_budget -> false

(** delta1 evidence for the no-flip case: T1 solo to commit, then T3 solo;
    the paper's opening case analysis shows the resulting history cannot be
    WAC if T3 still reads 0 for b1. *)
let delta1_refuted impl : bool =
  let r = Harness.run impl Constructions.delta1 in
  let keep = Tid.Set.of_list [ Tid.v 1; Tid.v 3 ] in
  let sub = History.restrict r.Harness.sim.Sim.history keep in
  match Tm_consistency.Weak_adaptive.check ~budget:2_000_000 sub with
  | Tm_consistency.Spec.Unsat -> true
  | _ -> false

(* ------------------------------------------------------------------ *)

let assess (impl : Tm_intf.impl) : t =
  let (module M : Tm_intf.S) = impl in
  let tm_l = [ ("tm", M.name) ] in
  Tm_obs.Sink.span ~labels:tm_l "pcl.assess" (fun () ->
  let report =
    Tm_obs.Sink.time ~labels:tm_l "pcl_analyse_wall_ns" (fun () ->
        Claims.analyse impl)
  in
  let notes = ref [] in
  let note fmt = Fmt.kstr (fun s -> notes := s :: !notes) fmt in
  (* Parallelism: scenarios + harness logs *)
  let scenario_viols = disjoint_pair_violations impl @ chain_violations impl in
  (* the construction's disjoint-access premises: s1 stable, alpha2
     non-interfering, and Claim 3 (o1 <> o2), which the proof derives
     from strict DAP *)
  let harness_viols, premise_broken =
    match report.Claims.outcome with
    | Ok d ->
        ( Claims.(d.beta.dap_violations @ d.beta'.dap_violations),
          not (d.Claims.premise_s1_stable
               && d.Claims.premise_alpha2_noninterfering
               && d.Claims.claim3) )
    | Error _ -> ([], false)
  in
  let parallelism =
    match (scenario_viols, harness_viols) with
    | [], [] when not premise_broken -> Holds
    | vs, vs' ->
        let v = match vs @ vs' with v :: _ -> Some v | [] -> None in
        let why =
          match v with
          | Some v ->
              Fmt.str "%s and %s contend while disjoint" (Tid.name v.t1)
                (Tid.name v.t2)
          | None -> "disjoint-access premise of the construction broken"
        in
        Violated why
  in
  (* Liveness *)
  let liveness =
    let from_construction =
      match report.Claims.outcome with
      | Error (Constructions.Liveness_failure { phase; detail }) ->
          Some (Fmt.str "%s: %s" phase detail)
      | _ -> None
    in
    let of_viols =
      match report.Claims.outcome with
      | Ok d -> Claims.(d.beta.of_violations @ d.beta'.of_violations)
      | Error _ -> []
    in
    match from_construction with
    | Some why -> Violated why
    | None -> (
        match of_viols with
        | v :: _ -> Violated (Fmt.str "%a" Tm_dap.Obstruction_freedom.pp_violation v)
        | [] -> (
            match suspended_enemy_progress impl with
            | Ok () -> Holds
            | Error why -> Violated why))
  in
  (* Consistency *)
  let consistency =
    match report.Claims.outcome with
    | Error (Constructions.Consistency_no_flip { writer; reader; item; value })
      ->
        let confirmed = delta1_refuted impl in
        Violated
          (Fmt.str
             "%s never observes %s's committed write to %s (reads %a)%s"
             (Tid.name reader) (Tid.name writer) (Item.name item)
             Value.pp_compact value
             (if confirmed then
                "; weak-adaptive checker refutes the delta1 history"
              else ""))
    | Error _ -> Holds (* failed earlier for another reason *)
    | Ok d ->
        if premise_broken then begin
          (* figure mismatches cannot be attributed to consistency when the
             DAP premises of the construction are broken *)
          if Claims.failed_checks d.Claims.beta <> []
             || Claims.failed_checks d.Claims.beta' <> []
          then
            note
              "figure tables deviate, but the construction's \
               disjoint-access premises were already broken (parallelism \
               failure)";
          Holds
        end
        else begin
          let failures =
            Claims.failed_checks d.Claims.beta
            @ Claims.failed_checks d.Claims.beta'
          in
          match failures with
          | [] ->
              if d.Claims.contradiction then
                note
                  "IMPOSSIBLE: all claims hold and alpha7 is \
                   indistinguishable from alpha7' — the PCL theorem is \
                   contradicted";
              (match d.Claims.indistinguishable_p7 with
              | Ok () -> ()
              | Error why -> note "p7 distinguishes beta from beta': %s" why);
              Holds
          | c :: _ ->
              let h =
                if List.exists (fun f -> f == c)
                     (Claims.failed_checks d.Claims.beta)
                then Claims.(d.beta.run.Harness.sim.Sim.history)
                else Claims.(d.beta'.run.Harness.sim.Sim.history)
              in
              let refuted = wac_refutes h c in
              Violated
                (Fmt.str "%s: expected %a, read %a%s" c.Claims.label
                   Value.pp_compact c.Claims.expected
                   Fmt.(option ~none:(any "nothing") Value.pp_compact)
                   c.Claims.got
                   (if refuted then
                      "; weak-adaptive checker refutes the history"
                    else ""))
        end
  in
  List.iter
    (fun (leg, v) ->
      Tm_obs.Sink.incr
        ~labels:
          (("leg", leg)
          :: ("status", match v with Holds -> "holds" | Violated _ -> "violated")
          :: tm_l)
        "pcl_leg_total")
    [ ("parallelism", parallelism); ("consistency", consistency);
      ("liveness", liveness) ];
  {
    impl_name = M.name;
    parallelism;
    consistency;
    liveness;
    notes = List.rev !notes;
  })

let pp ppf (t : t) =
  Fmt.pf ppf "%-12s P: %a@\n%-12s C: %a@\n%-12s L: %a" t.impl_name pp_leg
    t.parallelism "" pp_leg t.consistency "" pp_leg t.liveness;
  List.iter (fun n -> Fmt.pf ppf "@\n%-12s note: %s" "" n) t.notes

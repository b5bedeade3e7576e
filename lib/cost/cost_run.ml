(* The cost observatory's front end: a per-TM × workload cost matrix
   over the proof's figure schedules and the stock explore sweep, with
   an expected-cost table — the "PCL tax" each TM is predicted to pay
   for its corner of the triangle — checked against the observed rows.

   Workloads:
   - fig1 / fig1b — alpha1.s1.alpha3 and alpha1.alpha3' (Figure 1);
   - fig2         — alpha1.alpha2.s2.alpha5;
   - beta / beta-prime — the Figure 3-6 executions;
   - explore      — every complete execution of the stock
     {!Tm_probe.Explore_sweep} workload under sleep-set DPOR, costs
     summed across executions.

   TMs whose Section-4 construction does not exist (the blockers and the
   no-flip weak TMs) get status rows instead of figure costs: the
   construction failing *is* the observation.  Everything is
   deterministic — schedules are scripted, the DPOR sweep is seedless —
   so the JSONL is byte-identical across runs. *)

open Tm_runtime
open Tm_impl
open Pcl

type row = {
  tm : string;
  workload : string;
  status : string;  (** "ok", or "blocked:<phase>" / "no-flip" / "crash" *)
  executions : int;
  cost : Cost.t;  (** {!Cost.zero} when the workload could not run *)
}

let figure_workloads (c : Constructions.t) =
  [
    ("fig1", Constructions.alpha1_s1_alpha3 c);
    ("fig1b", Constructions.alpha1_alpha3' c);
    ( "fig2",
      Constructions.alpha1 c @ Constructions.alpha2 c
      @ [ Constructions.s2_atom; Schedule.Until_done 5 ] );
    ("beta", Constructions.beta c);
    ("beta-prime", Constructions.beta' c);
  ]

let workload_names =
  [ "fig1"; "fig1b"; "fig2"; "beta"; "beta-prime"; "explore" ]

let failure_status = function
  | Constructions.Liveness_failure { phase; _ } -> "blocked:" ^ phase
  | Constructions.Consistency_no_flip _ -> "no-flip"
  | Constructions.Crash _ -> "crash"

(** The figure rows for one TM: real costs when the Section-4
    construction builds, status rows otherwise. *)
let figure_rows (impl : Tm_intf.impl) : row list =
  let tm = Registry.name impl in
  match Constructions.build impl with
  | Error f ->
      let status = failure_status f in
      List.filter_map
        (fun workload ->
          if workload = "explore" then None
          else
            Some { tm; workload; status; executions = 0; cost = Cost.zero })
        workload_names
  | Ok c ->
      List.map
        (fun (workload, atoms) ->
          let run = Harness.run impl atoms in
          let cost =
            Cost.analyse ~history:run.Harness.sim.Sim.history
              (Tm_base.Access_log.whole
                 (Tm_base.Memory.log run.Harness.sim.Sim.mem))
          in
          { tm; workload; status = "ok"; executions = 1; cost })
        (figure_workloads c)

(** The explore row: costs summed over every complete execution of the
    stock sweep (sleep-set DPOR keeps it small and canonical). *)
let explore_row ?max_nodes ?max_executions ?(on_execution = fun () -> ())
    (impl : Tm_intf.impl) : row =
  let total = ref Cost.zero and execs = ref 0 in
  let _profile, _stats =
    Tm_probe.Explore_sweep.run ?max_nodes ?max_executions ~por:true
      ~on_execution:(fun ~strongest:_ (r : Sim.result) ->
        incr execs;
        total :=
          Cost.merge !total
            (Cost.analyse ~history:r.Sim.history
               (Tm_base.Access_log.whole (Tm_base.Memory.log r.Sim.mem)));
        on_execution ())
      impl
  in
  {
    tm = Registry.name impl;
    workload = "explore";
    status = "ok";
    executions = !execs;
    cost = !total;
  }

let rows_for ?max_nodes ?max_executions ?on_execution (impl : Tm_intf.impl)
    : row list =
  let rows =
    figure_rows impl
    @ [ explore_row ?max_nodes ?max_executions ?on_execution impl ]
  in
  List.iter
    (fun (r : row) ->
      Cost.register
        ~labels:[ ("tm", r.tm); ("workload", r.workload) ]
        r.cost)
    rows;
  rows

(* ------------------------------------------------------------------ *)
(* Rendering *)

let row_fields (r : row) : (string * int) list =
  [
    ("steps", r.cost.Cost.steps);
    ("rmrs", r.cost.Cost.rmrs);
    ("rmw", r.cost.Cost.rmw_steps);
    ("rarw", r.cost.Cost.read_after_remote_write);
    ("footprint", r.cost.Cost.footprint_max);
    ("capacity", r.cost.Cost.capacity_max);
    ("commits", r.cost.Cost.commits);
    ("aborts", r.cost.Cost.aborts);
    ("wasted", r.cost.Cost.wasted_steps);
    ("wasted_contended", r.cost.Cost.wasted_contended);
    ("wasted_uncontended", r.cost.Cost.wasted_uncontended);
  ]

let field_value (r : row) (field : string) : int =
  match List.assoc_opt field (row_fields r) with Some v -> v | None -> 0

let row_json (r : row) : Tm_obs.Obs_json.t =
  let open Tm_obs.Obs_json in
  Obj
    ([
       Tm_obs.Schema.field;
       ("type", String "cost_row");
       ("tm", String r.tm);
       ("workload", String r.workload);
       ("status", String r.status);
       ("executions", Int r.executions);
     ]
    @ List.map (fun (k, v) -> (k, Int v)) (row_fields r))

(* ------------------------------------------------------------------ *)
(* The expected-cost table: which costs each TM is predicted to pay —
   its PCL tax.  Checked on the explore row (every TM has one): every
   consistent TM pays RMW-class synchronization; the deferred-update
   TMs additionally pay wasted (aborted) work; pram-local pays nothing
   at all — zero RMRs, zero RMW, zero wasted work — which is exactly
   the theorem's trade: parallel and live only by giving up the
   consistency flip.  Pinned empirically and kept qualitative
   (zero / nonzero), so the table survives workload-size tweaks. *)

type sign = NonZero | Zero

type expect = { tm : string; workload : string; field : string; sign : sign }

let table : expect list =
  let e tm field sign = { tm; workload = "explore"; field; sign } in
  [
    (* tl-lock serializes through a global trylock: pure mutual
       exclusion — RMW on every txn.  Under the sweep's adversarial
       interleavings its trylock acquisitions fail and retry, so it
       wastes work too (a blocking TM spins; it does not park). *)
    e "tl-lock" "rmw" NonZero;
    e "tl-lock" "wasted" NonZero;
    (* pram-local gives up consistency instead of paying: no shared
       base-object traffic at all — zero RMRs, zero RMW-class steps,
       zero wasted work *)
    e "pram-local" "rmrs" Zero;
    e "pram-local" "rmw" Zero;
    e "pram-local" "wasted" Zero;
    (* the obstruction-free deferred-update TMs pay in aborted work *)
    e "dstm" "rmw" NonZero;
    e "dstm" "wasted" NonZero;
    (* si-clock: CAS on the clock and on ownership records *)
    e "si-clock" "rmw" NonZero;
    (* the candidate claims all three corners; the explore pair is the
       conflict its progressiveness resolves by aborting *)
    e "candidate" "rmw" NonZero;
    (* tl2-clock and norec block under contention rather than abort
       uncontended transactions *)
    e "tl2-clock" "rmw" NonZero;
    e "norec" "rmw" NonZero;
    e "llsc-candidate" "rmw" NonZero;
    (* lp-progressive resolves every conflict by aborting self at
       encounter time: CAS-acquired locators are RMW-class and the
       aborted attempts are wasted work — the progressive tax *)
    e "lp-progressive" "rmw" NonZero;
    e "lp-progressive" "wasted" NonZero;
    (* pwf-readers: one CAS per updater commit on the snapshot root;
       read-only transactions take no RMW-class step at all *)
    e "pwf-readers" "rmw" NonZero;
  ]

(** Violations of the expected-cost table plus the universal cost laws
    (RMRs and RMW-class steps never exceed steps; the wasted-work split
    is a partition; an "ok" row that touched shared memory at all paid
    at least one cold-miss RMR — pram-local's zero-step rows are the
    legitimate exception, and the table pins them to zero).  Returns
    [(tm, workload, violated labels)]. *)
let check (rows : row list) : (string * string * string list) list =
  let violations = ref [] in
  let violate (r : row) label =
    violations :=
      (match !violations with
      | (tm, w, fields) :: rest when tm = r.tm && w = r.workload ->
          (tm, w, fields @ [ label ]) :: rest
      | l -> (r.tm, r.workload, [ label ]) :: l)
  in
  List.iter
    (fun (r : row) ->
      (* universal laws *)
      if r.cost.Cost.rmrs > r.cost.Cost.steps then violate r "rmrs<=steps";
      if r.cost.Cost.rmw_steps > r.cost.Cost.steps then
        violate r "rmw<=steps";
      if
        r.cost.Cost.wasted_steps
        <> r.cost.Cost.wasted_contended + r.cost.Cost.wasted_uncontended
      then violate r "wasted-partition";
      if r.status = "ok" && r.cost.Cost.steps > 0 && r.cost.Cost.rmrs = 0
      then violate r "rmrs>0";
      (* the per-TM table *)
      List.iter
        (fun ex ->
          if ex.tm = r.tm && ex.workload = r.workload && r.status = "ok"
          then
            let v = field_value r ex.field in
            match ex.sign with
            | NonZero when v = 0 -> violate r (ex.field ^ "!=0")
            | Zero when v <> 0 -> violate r (ex.field ^ "=0")
            | NonZero | Zero -> ())
        table)
    rows;
  List.rev !violations

let check_json (violations : (string * string * string list) list) :
    Tm_obs.Obs_json.t =
  let open Tm_obs.Obs_json in
  Obj
    [
      Tm_obs.Schema.field;
      ("type", String "cost_check");
      ("violations", Int (List.length violations));
      ( "detail",
        List
          (List.map
             (fun (tm, w, fields) ->
               Obj
                 [
                   ("tm", String tm);
                   ("workload", String w);
                   ("fields", List (List.map (fun f -> String f) fields));
                 ])
             violations) );
    ]

(** The whole artifact: one head line, one line per row, one check
    line — every line stamped with the shared schema version. *)
let jsonl_values (rows : row list) : Tm_obs.Obs_json.t list =
  let open Tm_obs.Obs_json in
  let tms = List.sort_uniq compare (List.map (fun (r : row) -> r.tm) rows) in
  let head =
    Obj
      [
        Tm_obs.Schema.field;
        ("type", String "cost");
        ("tms", List (List.map (fun t -> String t) tms));
        ( "workloads",
          List (List.map (fun w -> String w) workload_names) );
        ("rows", Int (List.length rows));
      ]
  in
  (head :: List.map row_json rows) @ [ check_json (check rows) ]

let to_jsonl rows =
  String.concat "\n"
    (List.map Tm_obs.Obs_json.to_string (jsonl_values rows))
  ^ "\n"

(* the human-readable matrix *)
let pp_table ppf (rows : row list) =
  Fmt.pf ppf "%-15s %-11s %-15s %5s %6s %5s %5s %5s %5s %4s %4s %6s@\n"
    "tm" "workload" "status" "execs" "steps" "rmrs" "rmw" "rarw" "foot"
    "com" "abo" "wasted";
  List.iter
    (fun (r : row) ->
      Fmt.pf ppf "%-15s %-11s %-15s %5d %6d %5d %5d %5d %5d %4d %4d %6d@\n"
        r.tm r.workload r.status r.executions r.cost.Cost.steps
        r.cost.Cost.rmrs r.cost.Cost.rmw_steps
        r.cost.Cost.read_after_remote_write r.cost.Cost.footprint_max
        r.cost.Cost.commits r.cost.Cost.aborts r.cost.Cost.wasted_steps)
    rows

let pp_expectations ppf () =
  Fmt.pf ppf "expected-cost table (the PCL tax, on the explore row):@\n";
  List.iter
    (fun ex ->
      Fmt.pf ppf "  %-15s %-9s %s@\n" ex.tm ex.field
        (match ex.sign with
        | NonZero -> "expected nonzero"
        | Zero -> "expected zero"))
    table

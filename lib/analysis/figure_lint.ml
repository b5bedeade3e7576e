(* The figure-consistency pass.

   Unlike the trace passes, this one does not read its input's log: it
   uses the input only to name a TM, then replays the paper's
   constructions (delta1 serial; beta and beta' adversarial; the stall
   probe's failing point) with a private flight recorder and runs every
   trace pass over the recordings.  The expectation table below pins,
   per TM, which passes the proof says must fire — the executable form
   of "Figures 1-6 trip exactly these lints and no others". *)

open Tm_base
open Tm_impl
open Pcl
open Lint

type outcome =
  | Built of string list
  | Liveness_blocked of string
  | No_flip of string
  | Crashed of string

type observation = {
  serial : string list;
  outcome : outcome;
  stall : string list;
}

(* the recording as a lint input, with the proof's static data sets *)
let input_of (impl : Tm_intf.impl) fl : input =
  let module M = (val impl : Tm_intf.S) in
  {
    (input_of_flight fl) with
    data_sets = Some Txns.data_sets;
    tm = Some M.name;
  }

let fired ?(passes = Passes.trace_passes) (cfg : config) (i : input) :
    string list =
  List.filter_map
    (fun (p : pass) -> if p.run cfg i <> [] then Some p.name else None)
    passes

let fired_passes (cfg : config) (impl : Tm_intf.impl) atoms : string list =
  let _run, fl = Figures.record_run impl atoms in
  fired cfg (input_of impl fl)

(* The stall probe: pause the writer T1 after its k-th step and let the
   reader T3 run solo for three horizons.  A blocking TM leaves T3
   spinning on whatever T1 still holds (the global lock, a locked
   write-set entry, an odd sequence number), or aborting over it; an
   obstruction-free TM lets T3 commit solo.  We scan k because
   "mid-critical-section" lands at different depths in different commit
   protocols.  The first depth 1..40 at which T3 does not commit is
   recorded, and every trace pass runs on that recording. *)
let max_pause_depth = 40

let stall_probe (cfg : config) : Tm_probe.Solo_probe.entry =
  { specs = Txns.specs; prefix = []; enemy = 1; probe = 3;
    budget = 3 * cfg.horizon }

let stall_passes (cfg : config) (impl : Tm_intf.impl) : string list =
  let module P = Tm_probe.Solo_probe in
  let scan = P.scan impl (stall_probe cfg) in
  match
    P.first_failure (Seq.take max_pause_depth (P.points ~from:1 scan))
  with
  | None -> []
  | Some p ->
      (* replay the failing point once more, recorded *)
      let fl = Tm_trace.Flight.create () in
      Tm_trace.Flight.with_recorder fl (fun () -> ignore (scan.P.point p.k));
      fired cfg (input_of impl fl)

(* The expectation table states the theorem, which is about strict DAP,
   and [fired] asks only whether a pass found anything: the inner passes
   run under direct connectivity with one finding each, whatever the
   output settings.  The horizon stays the caller's. *)
let observe ?(config = default) (impl : Tm_intf.impl) : observation =
  let config = { config with dap_connectivity = `Direct; max_findings = 1 } in
  let serial = fired_passes config impl Constructions.delta1 in
  let stall = stall_passes config impl in
  let outcome =
    match Constructions.build impl with
    | Error (Constructions.Liveness_failure { phase; detail }) ->
        Liveness_blocked (Printf.sprintf "%s: %s" phase detail)
    | Error (Constructions.Consistency_no_flip { writer; reader; item; _ }) ->
        No_flip
          (Printf.sprintf "%s never observes %s's committed write to %s"
             (Tid.name reader) (Tid.name writer) (Item.name item))
    | Error (Constructions.Crash msg) -> Crashed msg
    | Ok c ->
        Built
          (List.sort_uniq String.compare
             (fired_passes config impl (Constructions.beta c)
             @ fired_passes config impl (Constructions.beta' c)))
  in
  { serial; outcome; stall }

type expectation = {
  build : [ `Ok | `Blocks | `No_flip ];
  fires : string list;
  stalls : bool;
}

(* Filled in from the proof's case analysis, confirmed against the
   implementations (test/test_analysis.ml locks these in):
   - tl-lock, tl2-clock and norec block: a paused lock/version holder
     leaves the reader spinning, so the adversary cannot assemble alpha2
     and the stall probe trips of-stall — the L corner.
   - pram-local forgoes consistency: T3 never observes T1's committed
     write, so no critical step exists and the construction has nothing
     to flip — the C corner.
   - si-clock and dstm assemble: both trip strict-dap (si's global clock;
     dstm's centralized contention metadata) and race (plain accesses of
     overlapping transactions).
   - candidate assembles and races — the theorem's victim pays on the
     adversarial schedules.
   - llsc-candidate is clean here: every access is LL/SC-synchronized,
     per-item, and solo runs complete.  (The theorem says it must pay
     elsewhere: it livelocks under step contention, which these
     contention-free probes never exhibit.) *)
let table : (string * expectation) list =
  [
    ("tl-lock", { build = `Blocks; fires = []; stalls = true });
    ("pram-local", { build = `No_flip; fires = []; stalls = false });
    ("dstm", { build = `Ok; fires = [ "race"; "strict-dap" ]; stalls = false });
    ( "si-clock",
      { build = `Ok; fires = [ "race"; "strict-dap" ]; stalls = false } );
    ("candidate", { build = `Ok; fires = [ "race" ]; stalls = false });
    ("tl2-clock", { build = `Blocks; fires = []; stalls = true });
    ("norec", { build = `Blocks; fires = []; stalls = true });
    ("llsc-candidate", { build = `Ok; fires = []; stalls = false });
    (* lp-progressive is the L corner again, by aborts instead of spins: a
       paused writer's lock makes the reader abort itself forever, so the
       construction blocks and the stall probe's forced aborts trip
       of-stall's uncontended-abort arm *)
    ("lp-progressive", { build = `Blocks; fires = []; stalls = true });
    (* pwf-readers pays the P corner maximally: every transaction crosses
       the snapshot root *)
    ( "pwf-readers",
      { build = `Ok; fires = [ "race"; "strict-dap" ]; stalls = false } );
  ]

let expected name = List.assoc_opt name table

let finding ?step ~severity message =
  {
    pass = "figure-consistency";
    severity;
    step;
    txns = [];
    oids = [];
    witness_steps = [];
    message;
  }

let describe_outcome = function
  | Built fired ->
      if fired = [] then "built; no passes fired"
      else Printf.sprintf "built; fired %s" (String.concat ", " fired)
  | Liveness_blocked f -> Printf.sprintf "liveness failure (%s)" f
  | No_flip f -> Printf.sprintf "no flip (%s)" f
  | Crashed msg -> Printf.sprintf "crash (%s)" msg

let check (cfg : config) (impl : Tm_intf.impl) : finding list =
  let module M = (val impl : Tm_intf.S) in
  let obs = observe ~config:cfg impl in
  let serial_findings =
    List.map
      (fun p ->
        finding ~severity:Error
          (Printf.sprintf
             "serial execution delta1 tripped pass %s on %s: serial runs \
              must be lint-clean"
             p M.name))
      obs.serial
  in
  match expected M.name with
  | None ->
      serial_findings
      @ [
          finding ~severity:Info
            (Printf.sprintf
               "no figure expectation recorded for %s (observed: %s; stall \
                probe: %s)"
               M.name
               (describe_outcome obs.outcome)
               (if obs.stall = [] then "clean"
                else String.concat ", " obs.stall));
        ]
  | Some exp ->
      let build_findings =
        match (obs.outcome, exp.build) with
        | Built fired, `Ok ->
            let missing =
              List.filter (fun p -> not (List.mem p fired)) exp.fires
            and unexpected =
              List.filter (fun p -> not (List.mem p exp.fires)) fired
            in
            List.map
              (fun p ->
                finding ~severity:Error
                  (Printf.sprintf
                     "pass %s did not fire on beta/beta' for %s, but the \
                      proof says it must"
                     p M.name))
              missing
            @ List.map
                (fun p ->
                  finding ~severity:Error
                    (Printf.sprintf
                       "pass %s fired on beta/beta' for %s but is not in \
                        its expectation set"
                       p M.name))
                unexpected
        | Liveness_blocked _, `Blocks | No_flip _, `No_flip -> []
        | outcome, exp_build ->
            [
              finding ~severity:Error
                (Printf.sprintf
                   "construction outcome for %s was %s, but the proof \
                    expects %s"
                   M.name
                   (describe_outcome outcome)
                   (match exp_build with
                   | `Ok -> "beta/beta' to assemble"
                   | `Blocks -> "a liveness failure (blocking TM)"
                   | `No_flip -> "no flip (weak-consistency TM)"));
            ]
      in
      let stall_findings =
        match (List.mem "of-stall" obs.stall, exp.stalls) with
        | true, true | false, false -> []
        | false, true ->
            [
              finding ~severity:Error
                (Printf.sprintf
                   "the stall probe never tripped of-stall on %s, but this \
                    TM blocks"
                   M.name);
            ]
        | true, false ->
            [
              finding ~severity:Error
                (Printf.sprintf
                   "the stall probe tripped of-stall on %s, which is \
                    expected to be obstruction-free"
                   M.name);
            ]
      in
      serial_findings @ build_findings @ stall_findings

let run (cfg : config) (i : input) : finding list =
  match i.tm with
  | None -> []
  | Some name -> (
      match Registry.find name with
      | None -> []
      | Some impl -> check cfg impl)

let pass : pass =
  {
    name = "figure-consistency";
    describe =
      "the paper's Figure 1-6 constructions trip exactly the expected \
       passes and no others";
    paper = "Section 4 (the constructions), Figures 1-6";
    run;
  }

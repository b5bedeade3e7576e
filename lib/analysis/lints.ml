(* Pass aggregation, name lookup and expected-findings classification. *)

let builtin =
  Passes.trace_passes @ Progress_lint.passes @ [ Figure_lint.pass ]

let all () =
  let plugins = Lint.registered () in
  let shadowed n = List.exists (fun (p : Lint.pass) -> p.Lint.name = n) plugins in
  List.filter (fun (p : Lint.pass) -> not (shadowed p.Lint.name)) builtin
  @ plugins

let is_prefix p s =
  String.length p <= String.length s && String.sub s 0 (String.length p) = p

type lookup =
  | Found of Lint.pass
  | Ambiguous of string list  (** pass names the prefix matches *)
  | Unknown

let lookup n : lookup =
  let passes = all () in
  match List.find_opt (fun (p : Lint.pass) -> p.Lint.name = n) passes with
  | Some p -> Found p
  | None -> (
      match
        List.filter (fun (p : Lint.pass) -> is_prefix n p.Lint.name) passes
      with
      | [ p ] -> Found p
      | [] -> Unknown
      | several -> Ambiguous (List.map (fun (p : Lint.pass) -> p.Lint.name) several))

let find n = match lookup n with Found p -> Some p | _ -> None

let find_exn n =
  match lookup n with
  | Found p -> p
  | Ambiguous candidates ->
      invalid_arg
        (Printf.sprintf "Lints.find_exn: %S is ambiguous (matches %s)" n
           (String.concat ", " candidates))
  | Unknown ->
      invalid_arg (Printf.sprintf "Lints.find_exn: no pass named %S" n)

(* Findings the theorem already predicts for each TM: the lint firing is
   the TM paying its PCL tax, not a regression.

   - race: every optimistic TM reads [val:x] with a plain load that a
     committer's locked write-back overwrites — unordered at the base
     level, benign only through validation (the STM analogue of a
     seqlock race).  Only llsc-candidate, whose every data access is an
     LL/SC pair, is race-free.
   - strict-dap / of-stall: exactly the corner of the PCL triangle the
     TM gives up (centralized contention vs blocking commits).  The
     blocking TMs also stall under adversarial schedules: a paused lock
     holder leaves everyone else spinning step-contention-free.
   - anomalies: tl-lock is strictly serializable but not opaque — a
     doomed reader can observe a commit's half-installed write set
     (torn-snapshot); the paper's SI drops first-committer-wins, so
     si-clock admits lost-update on top of write-skew; the weak TMs
     admit the full catalogue.
   - pwf: partial wait-freedom of read-only transactions is the rarest
     guarantee on the board — only the multiversion snapshot designs
     (si-clock, pwf-readers) and the no-communication corner
     (pram-local) keep readers wait-free.  The blocking TMs stall the
     reader on a suspended writer's locks, lp-progressive and tl2-clock
     abort it, and the invalidation designs (dstm, candidate,
     llsc-candidate) revoke readers under fair contention.
   - progressiveness never appears below: every stock TM's forced
     aborts are attributable to a read-write conflict with a concurrent
     transaction on these workloads, and the blocking TMs pay as
     of-stall/pwf stalls rather than unattributable aborts.  (The pass
     earns its keep on adversarial traces — see the stall fixtures in
     test_analysis — and as the obligation the two new TMs are verified
     against.) *)
let expected_table : (string * string list) list =
  [
    ("tl-lock", [ "race"; "torn-snapshot"; "of-stall"; "pwf" ]);
    ("pram-local", [ "race"; "lost-update"; "write-skew"; "torn-snapshot" ]);
    ("dstm", [ "race"; "strict-dap"; "pwf" ]);
    ("si-clock", [ "race"; "strict-dap"; "lost-update"; "write-skew" ]);
    ( "candidate",
      [ "race"; "lost-update"; "write-skew"; "torn-snapshot"; "pwf" ] );
    ("tl2-clock", [ "race"; "strict-dap"; "of-stall"; "pwf" ]);
    ("norec", [ "race"; "strict-dap"; "of-stall"; "pwf" ]);
    ("llsc-candidate",
     [ "lost-update"; "write-skew"; "torn-snapshot"; "of-stall"; "pwf" ]);
    ("lp-progressive", [ "race"; "of-stall"; "pwf" ]);
    ("pwf-readers", [ "race"; "strict-dap" ]);
  ]

let expected_for = function
  | None -> []
  | Some tm -> Option.value ~default:[] (List.assoc_opt tm expected_table)

let is_expected ~tm (f : Lint.finding) =
  List.mem f.Lint.pass (expected_for tm) || f.Lint.severity = Lint.Info

type run_result = {
  tm : string option;
  findings : Lint.finding list;
  unexpected : Lint.finding list;
  passes_run : string list;
}

let run_passes ?(config = Lint.default) passes (i : Lint.input) : run_result =
  let findings =
    List.concat_map (fun (p : Lint.pass) -> p.Lint.run config i) passes
  in
  {
    tm = i.Lint.tm;
    findings;
    unexpected =
      List.filter (fun f -> not (is_expected ~tm:i.Lint.tm f)) findings;
    passes_run = List.map (fun (p : Lint.pass) -> p.Lint.name) passes;
  }

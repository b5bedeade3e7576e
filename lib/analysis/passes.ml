(* The built-in trace-level lint passes.

   Every pass follows the same discipline: walk the execution forward,
   diagnose the property at the FIRST step where it becomes refutable, and
   attach a witness (transactions + global step indices).  This is the
   sanitizer reading of the paper's properties — strict-DAP contention,
   obstruction-free stalls and inconsistent reads all admit per-step
   characterizations (cf. Kuznetsov & Ravi), so none of them needs a full
   checker-lattice pass to detect. *)

open Tm_base
open Tm_trace
open Tm_dap
open Lint

let tid_list tids = List.sort_uniq Tid.compare tids

(* ------------------------------------------------------------------ *)
(* race: two hb-unordered accesses to one base object, one non-trivial.
   FastTrack-style bookkeeping: per object, remember the last access of
   each process (clock + kind); a new access races with a remembered one
   iff they conflict and the remembered clock is not below the current
   step's clock.  Two sync (RMW-class) accesses never race — the engine
   orders them through the object itself. *)

module Last = Map.Make (Int)

type epoch = {
  e_idx : int;  (** global step index *)
  e_tid : Tid.t option;
  e_kind : string;
  e_clock : Vclock.t;  (** the access's after-clock *)
}

(* Per object we remember, for each pid, its latest access of any kind and
   its latest non-trivial access (FastTrack's epoch optimization: program
   order makes the latest access dominate all earlier ones of the same
   class).  A new access is checked against other pids' last non-trivial
   epochs always, and — when itself non-trivial — against their last
   accesses of any kind too. *)
type obj_state = { any : epoch Last.t; nontrivial : epoch Last.t }

let empty_obj = { any = Last.empty; nontrivial = Last.empty }

let race_run (cfg : config) (i : input) : finding list =
  let hb = Hb.analyse ~history:i.history i.log in
  let per_obj : (Oid.t, obj_state) Hashtbl.t = Hashtbl.create 64 in
  let seen_pair : (int * int * int, unit) Hashtbl.t = Hashtbl.create 16 in
  let findings = ref [] in
  List.iter
    (fun (s : Hb.step) ->
      let e = s.Hb.entry in
      let o = e.Access_log.oid in
      let pid = e.Access_log.pid in
      let nt = Primitive.non_trivial e.Access_log.prim in
      let st = Option.value ~default:empty_obj (Hashtbl.find_opt per_obj o) in
      let report q (prev : epoch) =
        (* two sync accesses are always ordered through the object's
           release clock, so only pairs involving a plain read/write can
           reach the unordered case *)
        if not (Vclock.leq prev.e_clock s.Hb.after) then begin
          let key = (Oid.to_int o, min q pid, max q pid) in
          if not (Hashtbl.mem seen_pair key) then begin
            Hashtbl.add seen_pair key ();
            findings :=
              {
                pass = "race";
                severity = Warning;
                step = Some e.Access_log.index;
                txns =
                  tid_list
                    (List.filter_map Fun.id [ e.Access_log.tid; prev.e_tid ]);
                oids = [ o ];
                witness_steps = [ prev.e_idx; e.Access_log.index ];
                message =
                  Printf.sprintf
                    "unordered conflicting accesses to %s: p%d's %s (step \
                     %d) and p%d's %s (step %d) have no happens-before edge"
                    (i.name_of o) q prev.e_kind prev.e_idx pid
                    (Primitive.kind_name e.Access_log.prim)
                    e.Access_log.index;
              }
              :: !findings
          end
        end
      in
      Last.iter (fun q prev -> if q <> pid then report q prev) st.nontrivial;
      if nt then
        Last.iter
          (fun q prev ->
            (* skip epochs already compared via the non-trivial map *)
            let dup =
              match Last.find_opt q st.nontrivial with
              | Some p -> p.e_idx = prev.e_idx
              | None -> false
            in
            if q <> pid && not dup then report q prev)
          st.any;
      let epoch =
        {
          e_idx = e.Access_log.index;
          e_tid = e.Access_log.tid;
          e_kind = Primitive.kind_name e.Access_log.prim;
          e_clock = s.Hb.after;
        }
      in
      Hashtbl.replace per_obj o
        {
          any = Last.add pid epoch st.any;
          nontrivial =
            (if nt then Last.add pid epoch st.nontrivial else st.nontrivial);
        })
    (Hb.steps hb);
  cap cfg (List.rev !findings)

let race : pass =
  {
    name = "race";
    describe =
      "two happens-before-unordered accesses to one base object, at least \
       one non-trivial";
    paper = "Section 3 (base objects and primitives); sanitizer model";
    run = race_run;
  }

(* ------------------------------------------------------------------ *)
(* strict-dap: contention between disjoint (or graph-disconnected)
   transactions, flagged at the step where the second access lands — the
   per-step version of Dap.Strict_dap over Access_log summaries and
   Conflict data sets.

   A transaction's access to an object is compared with the object's
   earlier transactions only when it is the transaction's first access to
   the object or its first non-trivial one.  Any other access repeats one
   whose flag is as strong, and each pair it could report was already
   judged when one of the two transactions last compared, so the step that
   first reports a pair and its witness are the same as comparing at every
   access.  Findings come out in output order, so the pass stops at
   [max_findings]. *)

(* a transaction's contact with one object: its first access, and whether
   any of its accesses so far was non-trivial *)
type contact = { c_tid : Tid.t; c_idx : int; mutable c_nt : bool }

let dap_run (cfg : config) (i : input) : finding list =
  if cfg.max_findings <= 0 then []
  else
    let data_sets = effective_data_sets i in
    let related =
      match cfg.dap_connectivity with
      | `Direct -> Conflict.conflict data_sets
      | `Path ->
          let tids = List.map fst data_sets in
          let g = Conflict.graph data_sets tids in
          fun t1 t2 -> Conflict.connected g t1 t2
    in
    (* per object, its contacts, latest first *)
    let per_obj : (Oid.t, contact list) Hashtbl.t = Hashtbl.create 64 in
    let contact_of : (Oid.t * Tid.t, contact) Hashtbl.t =
      Hashtbl.create 256
    in
    let seen_pair : (int * int, unit) Hashtbl.t = Hashtbl.create 16 in
    let findings = ref [] and n = ref 0 in
    let judge (e : Access_log.entry) t o nt prior =
      List.iter
        (fun c ->
          let t' = c.c_tid in
          if (not (Tid.equal t t')) && (nt || c.c_nt) && not (related t t')
          then begin
            let key =
              ( min (Tid.to_int t) (Tid.to_int t'),
                max (Tid.to_int t) (Tid.to_int t') )
            in
            if not (Hashtbl.mem seen_pair key) then begin
              Hashtbl.add seen_pair key ();
              findings :=
                {
                  pass = "strict-dap";
                  severity = Error;
                  step = Some e.Access_log.index;
                  txns = tid_list [ t; t' ];
                  oids = [ o ];
                  witness_steps = [ c.c_idx; e.Access_log.index ];
                  message =
                    Printf.sprintf
                      "%s and %s have %s data sets but contend on %s (first \
                       contact at step %d)"
                      (Tid.name t') (Tid.name t)
                      (match cfg.dap_connectivity with
                      | `Direct -> "disjoint"
                      | `Path -> "conflict-graph-disconnected")
                      (i.name_of o) e.Access_log.index;
                }
                :: !findings;
              incr n;
              if !n >= cfg.max_findings then raise_notrace Exit
            end
          end)
        prior
    in
    (try
       List.iter
         (fun (e : Access_log.entry) ->
           match e.Access_log.tid with
           | None -> ()
           | Some t -> (
               let o = e.Access_log.oid in
               let nt = Primitive.non_trivial e.Access_log.prim in
               match Hashtbl.find_opt contact_of (o, t) with
               | Some c when c.c_nt || not nt -> ()
               | known -> (
                   let prior =
                     Option.value ~default:[] (Hashtbl.find_opt per_obj o)
                   in
                   judge e t o nt prior;
                   match known with
                   | Some c -> c.c_nt <- true
                   | None ->
                       let c =
                         { c_tid = t; c_idx = e.Access_log.index; c_nt = nt }
                       in
                       Hashtbl.replace contact_of (o, t) c;
                       Hashtbl.replace per_obj o (c :: prior))))
         i.log
     with Exit -> ());
    List.rev !findings

let strict_dap : pass =
  {
    name = "strict-dap";
    describe =
      "contention on a base object between transactions with disjoint data \
       sets";
    paper = "Section 3 (strict disjoint-access-parallelism), Def. of D(T)";
    run = dap_run;
  }

(* ------------------------------------------------------------------ *)
(* of-stall: the obstruction-freedom obligations made local.  Two arms:
   (1) stall — a transaction running step-contention-free past the
   horizon without completing (maximal runs of consecutive log entries
   attributed to one transaction, no intervening step by any other
   process); (2) uncontended abort — a transaction aborted although no
   other process stepped during its interval, delegated to
   Obstruction_freedom.violations.  Either refutes the property: an
   obstruction-free TM must let a solo transaction commit. *)

let of_stall_run (cfg : config) (i : input) : finding list =
  (* completion stamps: step count at which each transaction committed or
     aborted, from the history's response events *)
  let completion : (Tid.t, int) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun ev ->
      match ev with
      | Event.Resp { tid; resp = Event.R_committed | Event.R_aborted; at; _ }
        ->
          Hashtbl.replace completion tid at
      | _ -> ())
    (History.to_list i.history);
  let findings = ref [] in
  let flagged : (Tid.t, unit) Hashtbl.t = Hashtbl.create 4 in
  let cur : (Tid.t * int * int) option ref = ref None in
  (* (txn, first index of the solo run, length) *)
  List.iter
    (fun (e : Access_log.entry) ->
      let continue_run t first len =
        let len = len + 1 in
        if len > cfg.horizon && not (Hashtbl.mem flagged t) then begin
          Hashtbl.add flagged t ();
          findings :=
            {
              pass = "of-stall";
              severity = Error;
              step = Some e.Access_log.index;
              txns = [ t ];
              oids = [];
              witness_steps = [ first; e.Access_log.index ];
              message =
                Printf.sprintf
                  "%s has run %d steps step-contention-free (since step %d) \
                   without committing or aborting (horizon %d)"
                  (Tid.name t) len first cfg.horizon;
            }
            :: !findings
        end;
        cur := Some (t, first, len)
      in
      match (e.Access_log.tid, !cur) with
      | Some t, Some (t', first, len)
        when Tid.equal t t'
             && not (Hashtbl.mem completion t) ->
          continue_run t first len
      | Some t, _ when not (Hashtbl.mem completion t) ->
          continue_run t e.Access_log.index 0
      | _ -> cur := None)
    i.log;
  let uncontended_aborts =
    List.map
      (fun (v : Obstruction_freedom.violation) ->
        let lo, hi = v.Obstruction_freedom.interval in
        {
          pass = "of-stall";
          severity = Error;
          step = Some hi;
          txns = [ v.Obstruction_freedom.tid ];
          oids = [];
          witness_steps = [ lo; hi ];
          message =
            Printf.sprintf
              "%s aborted although no other process stepped during its \
               interval (steps %d..%d): obstruction-freedom permits aborts \
               only under step contention"
              (Tid.name v.Obstruction_freedom.tid) lo hi;
        })
      (Obstruction_freedom.violations i.history i.log)
  in
  cap cfg (List.rev !findings @ uncontended_aborts)

let of_stall : pass =
  {
    name = "of-stall";
    describe =
      "a transaction stalling step-contention-free past the horizon, or \
       aborted without step contention";
    paper = "Section 3 (obstruction-freedom); Kuznetsov-Ravi stalls";
    run = of_stall_run;
  }

(* ------------------------------------------------------------------ *)
(* anomaly lints: history-level patterns (lost update, write skew, torn
   snapshot) with provenance-style witnesses.  The step indices come from
   the events' [at] stamps, which live on the same axis as the access
   log. *)

let stamp h pos = Event.at (History.get h pos)

(** The global reads of [tid], as (item, value, at-stamp). *)
let global_reads_at h tid =
  List.filter_map
    (fun (r : History.read) ->
      if r.History.global then
        Some (r.History.item, r.History.value, stamp h r.History.pos)
      else None)
    (History.reads h tid)

let commit_stamp h tid =
  match History.positions_of_txn h tid with
  | Some (_, last) -> stamp h last
  | None -> 0

let pairs l =
  let rec go acc = function
    | [] -> acc
    | x :: rest -> go (List.fold_left (fun a y -> (x, y) :: a) acc rest) rest
  in
  List.rev (go [] l)

let lost_update_run (cfg : config) (i : input) : finding list =
  let h = i.history in
  let committed = List.filter (History.committed h) (History.txns h) in
  let findings =
    List.filter_map
      (fun (t1, t2) ->
        if not (History.concurrent h t1 t2) then None
        else
          let w1 = History.writes h t1 and w2 = History.writes h t2 in
          let r1 = global_reads_at h t1 and r2 = global_reads_at h t2 in
          List.find_map
            (fun (x, v, at1) ->
              match
                List.find_opt
                  (fun (x', v', _) -> Item.equal x x' && Value.equal v v')
                  r2
              with
              | Some (_, _, at2)
                when List.exists (fun (xi, _) -> Item.equal xi x) w1
                     && List.exists (fun (xi, _) -> Item.equal xi x) w2 ->
                  let step = max (commit_stamp h t1) (commit_stamp h t2) in
                  Some
                    {
                      pass = "lost-update";
                      severity = Error;
                      step = Some step;
                      txns = tid_list [ t1; t2 ];
                      oids = [];
                      witness_steps = List.sort_uniq compare [ at1; at2; step ];
                      message =
                        Printf.sprintf
                          "%s and %s both read %s = %s and both wrote %s \
                           before committing: one update is lost under any \
                           serialization"
                          (Tid.name t1) (Tid.name t2) (Item.name x)
                          (Value.show v) (Item.name x);
                    }
              | _ -> None)
            r1)
      (pairs committed)
  in
  cap cfg findings

let lost_update : pass =
  {
    name = "lost-update";
    describe =
      "two concurrent committed read-modify-writes of one item that both \
       read the same pre-state";
    paper = "Section 3 (serializability vs Def. 3.1 snapshot isolation)";
    run = lost_update_run;
  }

let write_skew_run (cfg : config) (i : input) : finding list =
  let h = i.history in
  let committed = List.filter (History.committed h) (History.txns h) in
  let wrote tu item v =
    List.exists
      (fun (yi, wv) -> Item.equal yi item && Value.equal wv v)
      (History.writes h tu)
  in
  let findings =
    List.filter_map
      (fun (t1, t2) ->
        if not (History.concurrent h t1 t2) then None
        else
          let w1 = History.writes h t1 and w2 = History.writes h t2 in
          let r1 = global_reads_at h t1 and r2 = global_reads_at h t2 in
          (* x written by t1 only, y written by t2 only; each read the
             other's item in its pre-state *)
          let only_in w w' =
            List.filter
              (fun (xi, _) ->
                not (List.exists (fun (yi, _) -> Item.equal xi yi) w'))
              w
          in
          (* a read of [item] counts as a pre-state read w.r.t. [writer]
             only when the observed value cannot come from [writer] or
             from anything later: it differs from every value [writer]
             wrote to [item] and every transaction that installed it
             completed before [writer] began (the initial value
             qualifies vacuously) *)
          let pre_state_read rr ~item ~writer =
            List.find_opt
              (fun (it, v, _) ->
                Item.equal it item
                && (not (wrote writer item v))
                && not
                     (List.exists
                        (fun tu ->
                          (not (Tid.equal tu writer))
                          && wrote tu item v
                          && not (History.precedes h tu writer))
                        (History.txns h)))
              rr
          in
          List.find_map
            (fun (x, _) ->
              List.find_map
                (fun (y, _) ->
                  if Item.equal x y then None
                  else
                    match
                      ( pre_state_read r1 ~item:y ~writer:t2,
                        pre_state_read r2 ~item:x ~writer:t1 )
                    with
                    | Some (_, _, at1), Some (_, _, at2) ->
                        let step =
                          max (commit_stamp h t1) (commit_stamp h t2)
                        in
                        Some
                          {
                            pass = "write-skew";
                            severity = Error;
                            step = Some step;
                            txns = tid_list [ t1; t2 ];
                            oids = [];
                            witness_steps =
                              List.sort_uniq compare [ at1; at2; step ];
                            message =
                              Printf.sprintf
                                "%s wrote %s while %s wrote %s, each \
                                 guarded by a pre-state read of the \
                                 other's item: disjoint writes with \
                                 crossing read dependencies"
                                (Tid.name t1) (Item.name x) (Tid.name t2)
                                (Item.name y);
                          }
                    | _ -> None)
                (only_in w2 w1))
            (only_in w1 w2))
      (pairs committed)
  in
  cap cfg findings

let write_skew : pass =
  {
    name = "write-skew";
    describe =
      "concurrent committed transactions with disjoint writes, each \
       guarded by a pre-state read of the other's written item";
    paper = "Section 3 (snapshot isolation, Def. 3.1)";
    run = write_skew_run;
  }

let torn_snapshot_run (cfg : config) (i : input) : finding list =
  let h = i.history in
  let txns = History.txns h in
  let committed = List.filter (History.committed h) txns in
  (* built once up front: per-txn write sets, and an (item, value) ->
     writers index for attribution queries *)
  let writes_of = List.map (fun t -> (t, History.writes h t)) txns in
  let writers : (Item.t * Value.t, Tid.t list) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun (t, ws) ->
      List.iter
        (fun w ->
          Hashtbl.replace writers w
            (t :: Option.value ~default:[] (Hashtbl.find_opt writers w)))
        ws)
    writes_of;
  let writers_of x v =
    Option.value ~default:[] (Hashtbl.find_opt writers (x, v))
  in
  let reads_of = List.map (fun t -> (t, global_reads_at h t)) txns in
  let findings =
    List.filter_map
      (fun tw ->
        let ww = List.assoc tw writes_of in
        List.find_map
          (fun (tr, rr) ->
            if Tid.equal tr tw then None
            else
              List.find_map
                (fun (x, vx) ->
                  (* attribute the read to tw only when the value pins the
                     writer: under lost updates (allowed by the paper's SI)
                     two writers can install the same value, and blaming tw
                     for another writer's copy would fabricate a tear *)
                  let ambiguous =
                    List.exists
                      (fun tu -> not (Tid.equal tu tw))
                      (writers_of x vx)
                  in
                  match
                    if ambiguous then None
                    else
                      List.find_opt
                        (fun (it, v, _) ->
                          Item.equal it x && Value.equal v vx)
                        rr
                  with
                  | None -> None
                  | Some (_, _, atx) ->
                      List.find_map
                        (fun (y, vy) ->
                          if Item.equal x y then None
                          else
                            match
                              List.find_opt
                                (fun (it, v, _) ->
                                  Item.equal it y && not (Value.equal v vy))
                                rr
                            with
                            | None -> None
                            | Some (_, u, aty) ->
                                (* u must predate tw's write: not the value
                                   of any writer tw does not precede *)
                                let explained =
                                  List.exists
                                    (fun tu ->
                                      (not (Tid.equal tu tw))
                                      && not (History.precedes h tu tw))
                                    (writers_of y u)
                                in
                                if explained then None
                                else
                                  Some
                                    {
                                      pass = "torn-snapshot";
                                      severity = Error;
                                      step = Some (max atx aty);
                                      txns = tid_list [ tw; tr ];
                                      oids = [];
                                      witness_steps =
                                        List.sort_uniq compare [ atx; aty ];
                                      message =
                                        Printf.sprintf
                                          "%s observed %s's write to %s but \
                                           read %s from strictly before it: \
                                           the snapshot is torn across %s's \
                                           atomic write set"
                                          (Tid.name tr) (Tid.name tw)
                                          (Item.name x) (Item.name y)
                                          (Tid.name tw);
                                    })
                        ww)
                ww)
          reads_of)
      committed
  in
  cap cfg findings

let torn_snapshot : pass =
  {
    name = "torn-snapshot";
    describe =
      "a reader observing part of a committed writer's atomic write set \
       together with strictly older state";
    paper = "Section 3 (weak adaptive consistency, Def. 3.3 blocks)";
    run = torn_snapshot_run;
  }

let trace_passes =
  [ race; strict_dap; of_stall; lost_update; write_skew; torn_snapshot ]

(* The strict-dap pass as it stood before it stopped at its finding cap:
   every access rebuilds its object's list of (transaction, first index,
   non-trivial) records and compares against all of them, and the cap
   keeps the first [max_findings] of every finding.  Test-only: the slow
   oracle that test_analysis checks [Lint_passes.strict_dap] against. *)

open Core
open Lint

let cap (cfg : config) findings =
  if List.length findings <= cfg.max_findings then findings
  else
    let rec take n = function
      | x :: rest when n > 0 -> x :: take (n - 1) rest
      | _ -> []
    in
    take cfg.max_findings findings

let tid_list tids = List.sort_uniq Tid.compare tids

let dap_run (cfg : config) (i : input) : finding list =
  let data_sets = effective_data_sets i in
  let related =
    match cfg.dap_connectivity with
    | `Direct -> Conflict.conflict data_sets
    | `Path ->
        let tids = List.map fst data_sets in
        let g = Conflict.graph data_sets tids in
        fun t1 t2 -> Conflict.connected g t1 t2
  in
  (* per object: every transaction that touched it, with first index and
     whether any of its accesses was non-trivial *)
  let per_obj : (Oid.t, (Tid.t * int * bool) list) Hashtbl.t =
    Hashtbl.create 64
  in
  let seen_pair : (int * int, unit) Hashtbl.t = Hashtbl.create 16 in
  let findings = ref [] in
  List.iter
    (fun (e : Access_log.entry) ->
      match e.Access_log.tid with
      | None -> ()
      | Some t ->
          let o = e.Access_log.oid in
          let nt = Primitive.non_trivial e.Access_log.prim in
          let prior = Option.value ~default:[] (Hashtbl.find_opt per_obj o) in
          List.iter
            (fun (t', idx', nt') ->
              if
                (not (Tid.equal t t'))
                && (nt || nt')
                && not (related t t')
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
                      witness_steps = [ idx'; e.Access_log.index ];
                      message =
                        Printf.sprintf
                          "%s and %s have %s data sets but contend on %s \
                           (first contact at step %d)"
                          (Tid.name t') (Tid.name t)
                          (match cfg.dap_connectivity with
                          | `Direct -> "disjoint"
                          | `Path -> "conflict-graph-disconnected")
                          (i.name_of o) e.Access_log.index;
                    }
                    :: !findings
                end
              end)
            prior;
          (* keep one record per transaction, upgrading the nontrivial flag *)
          let prior' =
            if List.exists (fun (t', _, _) -> Tid.equal t t') prior then
              List.map
                (fun (t', idx', nt') ->
                  if Tid.equal t t' then (t', idx', nt' || nt)
                  else (t', idx', nt'))
                prior
            else (t, e.Access_log.index, nt) :: prior
          in
          Hashtbl.replace per_obj o prior')
    (Log_ref.entries i.log);
  cap cfg (List.rev !findings)

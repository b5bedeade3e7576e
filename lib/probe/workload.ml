(* Workload generator and round-robin driver for the scaling experiment
   (T-B in DESIGN.md): n processes each execute a stream of
   read-modify-write transactions over item pools with a configurable
   conflict ratio; aborted transactions retry with a fresh tid (as in the
   paper's restart model).  All measurements are simulator-deterministic:
   steps, commits, aborts, contentions. *)

open Tm_base
open Tm_trace
open Tm_runtime
open Tm_impl
open Tm_dap

type config = {
  n_procs : int;
  txns_per_proc : int;
  conflict_pct : int;  (** 0..100: probability a txn touches shared items *)
  items_per_txn : int;
  shared_items : int;
  seed : int;
  max_retries : int;
}

let default =
  {
    n_procs = 4;
    txns_per_proc = 25;
    conflict_pct = 0;
    items_per_txn = 2;
    shared_items = 4;
    seed = 1;
    max_retries = 8;
  }

type stats = {
  steps : int;
  commits : int;
  aborts : int;
  contentions : int;
  disjoint_contentions : int;
  completed : bool;  (** all processes finished within the step budget *)
}

(* [memo render] is [render] with each index's answer kept for the rest
   of the process: a soak builds a fresh world every segment, and
   rendering its item names anew took most of a segment's set-up *)
let memo render =
  let known = ref [||] in
  fun i ->
    let a = !known in
    if i < Array.length a then a.(i)
    else begin
      let n = Array.length a in
      let a' =
        Array.init (max (i + 1) (2 * n)) (fun j ->
            if j < n then a.(j) else render j)
      in
      known := a';
      a'.(i)
    end

let shared_item = memo (fun i -> Item.v (Printf.sprintf "s%d" i))

(* [private_row p i] is process [p]'s [i]th own item *)
let private_row =
  memo (fun p -> memo (fun i -> Item.v (Printf.sprintf "p%d_%d" p i)))

let items_for (cfg : config) : Item.t list =
  List.init cfg.shared_items shared_item
  @ List.concat_map
      (fun p -> List.init cfg.items_per_txn (private_row p))
      (List.init cfg.n_procs (fun p -> p + 1))

(* the item set of one transaction attempt, decided deterministically from
   the seeded RNG.  Items are drawn from pools built once per client,
   so the per-transaction cost is the RNG draws alone; the draw sequence
   (one conflict roll, then one pool index per item on the shared path,
   in item order) is exactly the one [List.init] over sprintf produced. *)
let txn_items cfg st ~shared_pool ~private_items =
  let shared = Random.State.int st 100 < cfg.conflict_pct in
  let rec go i =
    if i >= cfg.items_per_txn then []
    else
      let x =
        if shared then shared_pool.(Random.State.int st cfg.shared_items)
        else private_items.(i)
      in
      x :: go (i + 1)
  in
  go 0

(* the read-modify-write body of one attempt (top-level, so a
   transaction allocates no per-attempt closure) *)
let rec run_ops (txn : Txn_api.txn) = function
  | [] -> Txn_api.try_commit txn
  | x :: rest -> (
      match Txn_api.read txn x with
      | Error () -> Error ()
      | Ok v -> (
          let v' =
            Value.int ((match v with Value.VInt n -> n | _ -> 0) + 1)
          in
          match Txn_api.write txn x v' with
          | Error () -> Error ()
          | Ok () -> run_ops txn rest))

let rec attempt cfg (handle : Txn_api.handle) ~pid ~k ~commits ~aborts items n
    =
  let tid = Tid.v ((pid * 1_000_000) + (k * 100) + n) in
  let txn = handle.Txn_api.begin_txn ~pid ~tid in
  match run_ops txn items with
  | Ok () -> incr commits
  | Error () ->
      incr aborts;
      if n < cfg.max_retries then
        attempt cfg handle ~pid ~k ~commits ~aborts items (n + 1)

(* one client process: run its transaction stream with retries *)
let client cfg (handle : Txn_api.handle) ~pid ~commits ~aborts () =
  let st = Random.State.make [| cfg.seed; pid |] in
  let shared_pool = Array.init cfg.shared_items shared_item in
  let private_items = Array.init cfg.items_per_txn (private_row pid) in
  for k = 1 to cfg.txns_per_proc do
    let items = txn_items cfg st ~shared_pool ~private_items in
    attempt cfg handle ~pid ~k ~commits ~aborts items 0
  done

(** Run the workload under a fair round-robin schedule (one step per
    process per turn) and collect the statistics.  Driven through the
    incremental engine: one live {!Sim.cursor} advanced a step at a time
    (the cursor wires in the flight recorder, exactly as a scripted
    replay does). *)
let run (impl : Tm_intf.impl) (cfg : config) : stats =
  let (module M : Tm_intf.S) = impl in
  let tm_l =
    [ ("tm", M.name); ("procs", string_of_int cfg.n_procs);
      ("conflict_pct", string_of_int cfg.conflict_pct) ]
  in
  Tm_obs.Sink.span ~labels:tm_l "workload.run" (fun () ->
  let commits = ref 0 and aborts = ref 0 in
  let pids = List.init cfg.n_procs (fun p -> p + 1) in
  let setup mem recorder =
    let handle =
      Txn_api.instantiate impl mem recorder ~items:(items_for cfg)
    in
    List.map
      (fun pid -> (pid, client cfg handle ~pid ~commits ~aborts))
      pids
  in
  let budget = 200_000 in
  let c = Sim.start ~budget setup in
  (* a genuine exception escaping a client is a TM bug: re-raise rather
     than silently folding it into a budget-exhausted stall (injected
     crash-stops, by contrast, just leave the process unfinished) *)
  let check_real_crash pid =
    match Sim.crashed c pid with
    | Some e when not (Scheduler.injected e) -> raise e
    | Some _ | None -> ()
  in
  (* closure-free round loop: one pass both steps the unfinished
     processes and detects completion, so a round allocates nothing *)
  let pid_arr = Array.of_list pids in
  let rec round steps =
    if steps > budget then false
    else begin
      let all_done = ref true in
      for i = 0 to Array.length pid_arr - 1 do
        let pid = Array.unsafe_get pid_arr i in
        if not (Sim.finished c pid) then begin
          all_done := false;
          ignore (Sim.step c pid);
          check_real_crash pid
        end
      done;
      if !all_done then true else round (steps + cfg.n_procs)
    end
  in
  let completed = round 0 in
  (* snapshot without the scripted-schedule flight context — the scaling
     workload writes its own run metadata below *)
  let r = Sim.snapshot ~flight:false c in
  Sim.release c;
  let alog = Memory.log r.Sim.mem in
  (* fill in the run context so an installed recorder's artifact is
     replayable/lintable, as Sim.replay does for scripted schedules *)
  (match Flight.default () with
  | Some fl ->
      Flight.set_names fl
        (Array.init (Memory.n_objects r.Sim.mem) (Memory.name_of r.Sim.mem));
      Flight.set_history fl r.Sim.history;
      Flight.set_meta fl "tm" M.name;
      Flight.set_meta fl "workload" "scaling";
      Flight.set_meta fl "seed" (string_of_int cfg.seed);
      Flight.set_meta fl "stop"
        (if completed then "completed" else "budget-exhausted");
      Flight.set_meta fl "steps" (string_of_int (Access_log.length alog))
  | None -> ());
  let contentions = Contention.all_contentions (Access_log.whole alog) in
  (* DAP classification on the items each transaction invoked: one that
     aborts mid-write still conflicts with the lock holder it hit *)
  let disjoint =
    let conflict = Conflict.conflict (Conflict.of_history r.Sim.history) in
    List.filter
      (fun (c : Contention.contention) ->
        not (conflict c.Contention.t1 c.Contention.t2))
      contentions
  in
  let stats =
    {
      steps = Access_log.length alog;
      commits = !commits;
      aborts = !aborts;
      contentions = List.length contentions;
      disjoint_contentions = List.length disjoint;
      completed;
    }
  in
  Tm_obs.Sink.incr ~labels:tm_l "workload_runs_total";
  Tm_obs.Sink.add ~labels:tm_l "workload_steps_total" stats.steps;
  Tm_obs.Sink.add ~labels:tm_l "workload_commits_total" stats.commits;
  Tm_obs.Sink.add ~labels:tm_l "workload_aborts_total" stats.aborts;
  Tm_obs.Sink.add ~labels:tm_l "workload_contentions_total" stats.contentions;
  Tm_obs.Sink.add ~labels:tm_l "workload_disjoint_contentions_total"
    stats.disjoint_contentions;
  if not stats.completed then
    Tm_obs.Sink.incr ~labels:tm_l "workload_stalled_total";
  stats)

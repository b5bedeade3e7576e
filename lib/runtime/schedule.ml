(* Schedules: the adversary's scripts.  The PCL proof's executions are
   concatenations alpha_1 . alpha_2 . s_1 . alpha_3 ... of solo segments and
   single steps; an [atom list] expresses exactly those.  The chaos engine
   extends the alphabet with fault atoms — crash-stop, park/unpark
   (adversarial delay) and doomed-transaction poison — so a faulted run is
   still one replayable script. *)

open Tm_base

type atom =
  | Steps of int * int  (** [Steps (pid, n)]: at most [n] steps of [pid] *)
  | Until_done of int  (** run [pid] solo until its program finishes *)
  | Crash of int  (** crash-stop [pid]: it takes no further steps, ever *)
  | Park of int  (** suspend [pid]: its quanta are skipped until unparked *)
  | Unpark of int  (** resume a parked [pid] *)
  | Poison of int
      (** doom [pid]'s current transaction: force-abort at its next
          transactional operation *)

type stall = {
  stalled_pid : int;
  last : Access_log.entry option;
      (** the last step the stalled process took, if it took any — the
          attribution a chaos sweep needs to explain where it wedged *)
}

type stop =
  | Completed
  | Budget_exhausted of stall
  | Crashed of int * exn  (** a genuine exception escaped a process *)

type report = {
  stop : stop;
  steps_per_atom : int list;  (** steps actually taken by each atom *)
  crashes : (int * int) list;
      (** injected crash-stops, as (pid, global step at injection) *)
}

let pp_atom ppf = function
  | Steps (pid, n) -> Fmt.pf ppf "p%d^%d" pid n
  | Until_done pid -> Fmt.pf ppf "p%d*" pid
  | Crash pid -> Fmt.pf ppf "p%d!" pid
  | Park pid -> Fmt.pf ppf "p%d(zzz)" pid
  | Unpark pid -> Fmt.pf ppf "p%d(wake)" pid
  | Poison pid -> Fmt.pf ppf "p%d(poison)" pid

let pp ppf atoms = Fmt.(list ~sep:(any " . ") pp_atom) ppf atoms

(* The compact one-token-per-atom format used by `pcl_tm trace` and by
   flight-recorder artifacts: "p1:7,p2:*" means 7 steps of p1 then p2
   until done; fault atoms are "p1:!" (crash), "p1:z" (park), "p1:w"
   (unpark) and "p1:~" (poison).  [of_string] inverts [to_string]
   exactly, so a dumped schedule — faults included — replays
   bit-identically. *)

let atom_to_string = function
  | Steps (pid, n) -> Printf.sprintf "p%d:%d" pid n
  | Until_done pid -> Printf.sprintf "p%d:*" pid
  | Crash pid -> Printf.sprintf "p%d:!" pid
  | Park pid -> Printf.sprintf "p%d:z" pid
  | Unpark pid -> Printf.sprintf "p%d:w" pid
  | Poison pid -> Printf.sprintf "p%d:~" pid

let to_string atoms = String.concat "," (List.map atom_to_string atoms)

let of_string s : (atom list, string) result =
  let parse_atom tok =
    match String.split_on_char ':' (String.trim tok) with
    | [ p; spec ] when String.length p > 1 && p.[0] = 'p' -> (
        match int_of_string_opt (String.sub p 1 (String.length p - 1)) with
        | None -> Error (Printf.sprintf "bad process in %S" tok)
        | Some pid -> (
            match spec with
            | "*" -> Ok (Until_done pid)
            | "!" -> Ok (Crash pid)
            | "z" -> Ok (Park pid)
            | "w" -> Ok (Unpark pid)
            | "~" -> Ok (Poison pid)
            | n -> (
                match int_of_string_opt n with
                | Some n when n >= 0 -> Ok (Steps (pid, n))
                | Some _ ->
                    Error (Printf.sprintf "negative step count in %S" tok)
                | None -> Error (Printf.sprintf "bad step count in %S" tok))))
    | _ ->
        Error
          (Printf.sprintf
             "bad schedule token %S (want pN:K, pN:*, pN:!, pN:z, pN:w or \
              pN:~)"
             tok)
  in
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | tok :: rest -> (
        match parse_atom tok with
        | Ok a -> go (a :: acc) rest
        | Error _ as e -> e)
  in
  go [] (String.split_on_char ',' s)

let stop_reason = function
  | Completed -> "completed"
  | Budget_exhausted _ -> "budget-exhausted"
  | Crashed _ -> "crashed"

(** The stop rendered for run metadata and reports: a stall names the
    process {e and} the last step it took, so a chaos sweep can attribute
    the wedge ("budget-exhausted:p1@#42"), not just count it. *)
let stop_to_string = function
  | Completed -> "completed"
  | Budget_exhausted { stalled_pid; last = None } ->
      Printf.sprintf "budget-exhausted:p%d@start" stalled_pid
  | Budget_exhausted { stalled_pid; last = Some e } ->
      Printf.sprintf "budget-exhausted:p%d@#%d" stalled_pid
        e.Access_log.index
  | Crashed (pid, _) -> Printf.sprintf "crashed:p%d" pid

(* -- resumable sessions ------------------------------------------------ *)

(* A session is a schedule interpretation in progress: the park table,
   injected-crash list and per-atom step counts live here instead of in a
   recursion over a complete atom list, so atoms can be fed one at a time
   — the incremental engine [Sim]'s cursors are built on — and a schedule
   never re-executes its prefix to take one more step. *)

type session = {
  sched : Scheduler.t;
  budget : int;  (* bounds each [Until_done] segment *)
  parked : (int, unit) Hashtbl.t;
  mutable crashes_rev : (int * int) list;
  runs : Tm_base.Intvec.t;
      (* the per-atom step tallies in order, as runs of equal tallies:
         each closed run is two pushes, its tally then its length *)
  mutable run_tally : int;  (* the open run's tally *)
  mutable run_count : int;  (* its length; 0 before the first atom *)
  mutable stopped : stop option;  (* [Some _] once the schedule halted *)
  mutable total_steps : int;  (* steps executed across all atoms *)
  mutable on_tick : (int -> unit) option;
      (* progress hook, called with [total_steps] after every atom that
         executed at least one step — the deterministic heartbeat live
         observers (watch lines, GC sampling) key their boundaries on *)
}

let session ?(budget = 100_000) sched =
  {
    sched;
    budget;
    parked = Hashtbl.create 4;
    crashes_rev = [];
    runs = Tm_base.Intvec.create ~chunk_bits:6 ();
    run_tally = 0;
    run_count = 0;
    stopped = None;
    total_steps = 0;
    on_tick = None;
  }

let set_tick s f = s.on_tick <- Some f
let session_steps s = s.total_steps

type feed_outcome = {
  steps : int;  (** steps the atom actually took *)
  halted : bool;  (** the session is (now) stopped *)
}

let session_stopped s = s.stopped <> None
(* asked before every step ([Sim.step], [feed_steps]); most sessions
   never park, and the length test spares them the hash *)
let parked s pid = Hashtbl.length s.parked > 0 && Hashtbl.mem s.parked pid

(* Count [k] executed atoms of [n] steps each (none if [k <= 0]): extend
   the open run of tallies or close it and open another, then fire the
   progress hook after each atom that moved.  O(1) with no hook
   installed.  [stopped] (when the last atom halted the session) must
   already be set so the hook observes the final state. *)
let count_atoms s n k =
  if k > 0 then begin
    if s.run_count > 0 && s.run_tally = n then s.run_count <- s.run_count + k
    else begin
      if s.run_count > 0 then begin
        Tm_base.Intvec.push s.runs s.run_tally;
        Tm_base.Intvec.push s.runs s.run_count
      end;
      s.run_tally <- n;
      s.run_count <- k
    end;
    if n > 0 then
      match s.on_tick with
      | None -> s.total_steps <- s.total_steps + (n * k)
      | Some f ->
          for _ = 1 to k do
            s.total_steps <- s.total_steps + n;
            f s.total_steps
          done
  end

let count_atom s n = count_atoms s n 1

let stall_of s pid =
  {
    stalled_pid = pid;
    last = Access_log.last_by_pid (Memory.log (Scheduler.memory s.sched)) pid;
  }

(** Execute one atom; returns the steps it actually took.  The
    allocation-free core of {!feed} (top-level helpers, int result):
    whether the atom halted the session is observable via
    {!session_stopped}.  A no-op once the session has stopped (the atom
    is neither executed nor counted, exactly as [run] abandons the tail
    of its atom list).  Injected crash-stops do {e not} stop the session
    — the survivors keep running, which is the whole point of a chaos
    run; only a genuine escaping exception or an exhausted [Until_done]
    budget does. *)
let feed_steps (s : session) (atom : atom) : int =
  match s.stopped with
  | Some _ -> 0
  | None -> (
      match atom with
      | Crash pid ->
          Tm_obs.Sink.incr "chaos_crash_injected_total";
          s.crashes_rev <-
            (pid, Memory.step_count (Scheduler.memory s.sched))
            :: s.crashes_rev;
          Scheduler.inject_crash s.sched pid;
          count_atom s 0;
          0
      | Park pid ->
          Tm_obs.Sink.incr "chaos_park_total";
          Hashtbl.replace s.parked pid ();
          count_atom s 0;
          0
      | Unpark pid ->
          Hashtbl.remove s.parked pid;
          count_atom s 0;
          0
      | Poison pid ->
          Tm_obs.Sink.incr "chaos_poison_injected_total";
          Memory.poison (Scheduler.memory s.sched) pid;
          count_atom s 0;
          0
      | Steps (pid, n) ->
          if parked s pid then begin
            count_atom s 0;
            0
          end
          else begin
            let taken = Scheduler.run_steps s.sched pid n in
            (* a halting atom still records its step count: the steps it
               took are part of the state it left behind *)
            (match Scheduler.crash_state s.sched pid with
            | Scheduler.Genuine e -> s.stopped <- Some (Crashed (pid, e))
            | Scheduler.No_crash | Scheduler.Injected_stop -> ());
            count_atom s taken;
            taken
          end
      | Until_done pid -> (
          if parked s pid then begin
            count_atom s 0;
            0
          end
          else
            match Scheduler.run_solo s.sched pid ~budget:s.budget with
            | Scheduler.Done n ->
                count_atom s n;
                n
            | Scheduler.Out_of_budget ->
                s.stopped <- Some (Budget_exhausted (stall_of s pid));
                count_atom s s.budget;
                s.budget
            | Scheduler.Crash e when Scheduler.injected e ->
                (* a previously crash-stopped process will never finish;
                   skip its solo segment and keep the schedule going *)
                count_atom s 0;
                0
            | Scheduler.Crash e ->
                (* not counted: the halting solo segment of a genuine
                   crash never reported a step tally *)
                s.stopped <- Some (Crashed (pid, e));
                0))

(** [k] feeds of [Steps (pid, 1)], with the steps taken as one scheduler
    run.  Only [pid] moves within the run, so a failed await with more of
    the run left takes the bulk append ({!Scheduler.run_steps}).  The
    session is left as the [k] feeds leave it: one tally per atom (1 per
    step taken, 0 for each atom fed once the process has finished or
    been crash-stopped, or while it is parked), the same total, and
    nothing fed after a genuine crash stops the session — the crashing
    atom is the one that took the run's last step, or the first if the
    process failed on being started. *)
let feed_run (s : session) pid k =
  if s.stopped = None then
    if parked s pid then count_atoms s 0 k
    else begin
      let taken = Scheduler.run_steps s.sched pid k in
      match Scheduler.crash_state s.sched pid with
      | Scheduler.Genuine e ->
          count_atoms s 1 (taken - 1);
          s.stopped <- Some (Crashed (pid, e));
          count_atom s (min taken 1)
      | Scheduler.No_crash | Scheduler.Injected_stop ->
          count_atoms s 1 taken;
          count_atoms s 0 (k - taken)
    end

(** {!feed_steps} with the legacy boxed outcome. *)
let feed (s : session) (atom : atom) : feed_outcome =
  let steps = feed_steps s atom in
  { steps; halted = s.stopped <> None }

(* the runs expanded, one tally per atom, built from the last atom back *)
let steps_per_atom s =
  let rec repeat v n acc = if n = 0 then acc else repeat v (n - 1) (v :: acc) in
  let rec closed i acc =
    if i < 0 then acc
    else
      closed (i - 2)
        (repeat (Intvec.get s.runs (i - 1)) (Intvec.get s.runs i) acc)
  in
  closed (Intvec.length s.runs - 1) (repeat s.run_tally s.run_count [])

(** The report of everything fed so far ([Completed] while still
    running).  Side-effect free: callable mid-session. *)
let session_report (s : session) : report =
  {
    stop = Option.value ~default:Completed s.stopped;
    steps_per_atom = steps_per_atom s;
    crashes = List.rev s.crashes_rev;
  }

(** Execute a schedule on a scheduler.  [budget] bounds each [Until_done]
    segment (a segment that exhausts it reports [Budget_exhausted] with the
    stalled process and its last step, and stops the schedule — the
    liveness-failure signal).  Injected crash-stops do {e not} stop the
    schedule: the surviving processes keep running; only a genuine
    exception escaping a process stops it. *)
let run (sched : Scheduler.t) ?(budget = 100_000) (atoms : atom list) :
    report =
  let s = session ~budget sched in
  List.iter (fun a -> ignore (feed s a)) atoms;
  let report = session_report s in
  Tm_obs.Sink.add "schedule_atoms_total" (List.length atoms);
  Tm_obs.Sink.incr
    ~labels:[ ("reason", stop_reason report.stop) ]
    "schedule_stop_total";
  report

(* Bounded exhaustive exploration of interleavings — a small stateless
   model checker on the incremental engine.

   A search-tree node is a {!Sim.cursor}: descending into the first child
   advances the node's own live world by one step (constant work), and
   each later sibling starts from an O(1) fork of the node that pays a
   single prefix replay when first advanced.  The old engine replayed the
   whole prefix at every node *and* at every candidate probe — O(depth^2)
   simulation steps per path; the cursor engine makes a leftmost descent
   linear and spends exactly one replay per backtrack point.

   With [~por:true] the search adds sleep-set dynamic partial-order
   reduction (Godefroid).  Two enabled steps are independent iff they
   touch different base objects or their primitives commute on the same
   object (both trivial — see [Primitive.commute]); the next access of
   every started process is already parked in its scheduler cell, so the
   check costs nothing and builds nothing ([Sim.independent]).  A process
   whose next access is unknown (never stepped: its prelude has not run
   to a primitive) is conservatively dependent with everything.  Sleep
   sets preserve at least one linearization of every Mazurkiewicz trace,
   so every reachable final history is still enumerated — only redundant
   reorderings of commuting steps are skipped.

   Used by the test suite to verify properties over *all* executions of
   short workloads (e.g. "every interleaving of these two transactions on
   TL is strictly serializable", "the candidate TM has an interleaving
   that violates snapshot isolation"). *)

type stats = {
  mutable executions : int;  (** complete executions enumerated *)
  mutable nodes : int;  (** search-tree nodes visited *)
  mutable truncated : bool;  (** hit a bound before finishing *)
  mutable sleep_pruned : int;
      (** candidate steps skipped by sleep-set reduction *)
  mutable replays : int;
      (** prefix re-executions paid for backtracking (fork
          materializations beyond the live search frontier) *)
  mutable stopped_early : bool;
      (** the [on_execution] callback cut the search short *)
}

exception Stop_exploration

let explore_until ?(max_steps = 200) ?(max_executions = 100_000)
    ?(max_nodes = 1_000_000) ?(por = false) (setup : Sim.setup)
    ~(pids : int list)
    ~(on_execution : Sim.result -> [ `Continue | `Stop ]) : stats =
  let stats =
    {
      executions = 0;
      nodes = 0;
      truncated = false;
      sleep_pruned = 0;
      replays = 0;
      stopped_early = false;
    }
  in
  (* [c] is the live world at this node; [sleep] the pids whose next step
     was already explored from an equivalent node (por mode only).  A
     world the search drops with processes still suspended is released *)
  let rec dfs c depth sleep =
    if stats.nodes >= max_nodes || stats.executions >= max_executions
    then begin
      stats.truncated <- true;
      Sim.release c
    end
    else begin
      stats.nodes <- stats.nodes + 1;
      let unfinished =
        List.filter (fun pid -> not (Sim.finished c pid)) pids
      in
      if unfinished = [] then begin
        stats.executions <- stats.executions + 1;
        match on_execution (Sim.snapshot c) with
        | `Continue -> ()
        | `Stop ->
            stats.stopped_early <- true;
            raise_notrace Stop_exploration
      end
      else if depth >= max_steps then begin
        stats.truncated <- true;
        Sim.release c
      end
      else begin
        let candidates =
          if por then List.filter (fun p -> not (List.mem p sleep)) unfinished
          else unfinished
        in
        if por then
          stats.sleep_pruned <-
            stats.sleep_pruned
            + (List.length unfinished - List.length candidates);
        (* checkpoint this node before its live world is consumed by the
           first descending child *)
        let base = Sim.fork c in
        let avail = ref (Some c) in
        let take () =
          match !avail with
          | Some c0 ->
              avail := None;
              c0
          | None ->
              stats.replays <- stats.replays + 1;
              Sim.fork base
        in
        let rec siblings sleep_now = function
          | [] -> ()
          | p :: rest ->
              let child = take () in
              (* the sleeping processes whose next step commutes with p's:
                 p's step leaves their requests as they are, so this is
                 asked before the step *)
              let child_sleep =
                if por then
                  List.filter (fun q -> Sim.independent child p q) sleep_now
                else []
              in
              if Sim.step child p then begin
                dfs child (depth + 1) child_sleep;
                siblings (if por then p :: sleep_now else sleep_now) rest
              end
              else begin
                (* no step taken: the world is unchanged, so this cursor
                   still represents the node — reuse it *)
                avail := Some child;
                siblings sleep_now rest
              end
        in
        siblings sleep candidates;
        Option.iter Sim.release !avail
      end
    end
  in
  Tm_obs.Sink.span "explorer.explore" (fun () ->
      let root = Sim.start setup in
      try dfs root 0 [] with Stop_exploration -> ());
  Tm_obs.Sink.add "explorer_nodes_total" stats.nodes;
  Tm_obs.Sink.add "explorer_executions_total" stats.executions;
  Tm_obs.Sink.add "explorer_sleep_pruned_total" stats.sleep_pruned;
  Tm_obs.Sink.add "explorer_replays_total" stats.replays;
  if stats.stopped_early then Tm_obs.Sink.incr "explorer_early_stop_total";
  if stats.truncated then Tm_obs.Sink.incr "explorer_truncated_total";
  stats

let explore ?max_steps ?max_executions ?max_nodes ?por (setup : Sim.setup)
    ~(pids : int list) ~(on_execution : Sim.result -> unit) : stats =
  explore_until ?max_steps ?max_executions ?max_nodes ?por setup ~pids
    ~on_execution:(fun r ->
      on_execution r;
      `Continue)

(** [for_all setup ~pids prop] — does [prop] hold of every complete bounded
    execution?  Returns the first counterexample if not; the search stops
    at it (counted in [stats.stopped_early]). *)
let for_all ?max_steps ?max_executions ?max_nodes ?por setup ~pids
    (prop : Sim.result -> bool) : (stats, Sim.result) result =
  let counter = ref None in
  let stats =
    explore_until ?max_steps ?max_executions ?max_nodes ?por setup ~pids
      ~on_execution:(fun r ->
        if prop r then `Continue
        else begin
          counter := Some r;
          `Stop
        end)
  in
  match !counter with None -> Ok stats | Some r -> Error r

(** [exists setup ~pids prop] — is there a bounded execution satisfying
    [prop]?  The search stops at the first witness. *)
let exists ?max_steps ?max_executions ?max_nodes ?por setup ~pids
    (prop : Sim.result -> bool) : Sim.result option =
  let witness = ref None in
  let (_ : stats) =
    explore_until ?max_steps ?max_executions ?max_nodes ?por setup ~pids
      ~on_execution:(fun r ->
        if prop r then begin
          witness := Some r;
          `Stop
        end
        else `Continue)
  in
  !witness

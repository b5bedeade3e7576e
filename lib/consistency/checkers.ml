(* Registry of all consistency checkers, in a topological order of the
   paper's implication lattice ([edges]): every condition comes before
   each condition it implies.  [satisfied] relies on that order to answer
   implied conditions without running their checkers. *)

open Tm_trace

(** Wrap a checker so every decision records its verdict, wall latency and
    input size into the default telemetry sink (and appears as a
    [checker.check] span). *)
let instrument (c : Spec.checker) : Spec.checker =
  let labels = [ ("checker", c.Spec.name) ] in
  let check ?budget h =
    Tm_obs.Sink.span ~labels "checker.check" (fun () ->
        let v =
          Tm_obs.Sink.time ~labels "checker_wall_ns" (fun () ->
              c.Spec.check ?budget h)
        in
        Tm_obs.Sink.observe ~labels "checker_history_events"
          (float_of_int (History.length h));
        Tm_obs.Sink.incr
          ~labels:(("verdict", Spec.verdict_to_string v) :: labels)
          "checker_verdict_total";
        v)
  in
  { c with Spec.check }

let all : Spec.checker list =
  List.map instrument
    [
      Opacity.checker;
      Strict_serializability.checker;
      Serializability.checker;
      Causal.checker;
      Processor_consistency.checker;
      Pram.checker;
      Snapshot_isolation.checker;
      Snapshot_isolation_ei.checker;
      Weak_adaptive.checker;
    ]

(** (stronger, weaker) pairs by checker name: the implication lattice
    drawn in {!Hierarchy}. *)
let edges : (string * string) list =
  [
    ("opacity(final-state)", "strict-serializability");
    ("strict-serializability", "serializability");
    ("serializability", "causal-serializability");
    ("causal-serializability", "processor-consistency");
    ("processor-consistency", "pram");
    ("processor-consistency", "weak-adaptive");
    ("strict-serializability", "snapshot-isolation");
    ("snapshot-isolation", "weak-adaptive");
    ("snapshot-isolation", "snapshot-isolation(ei)");
  ]

let find name =
  List.find_opt (fun (c : Spec.checker) -> c.Spec.name = name) all

let find_exn name =
  match find name with
  | Some c -> c
  | None -> invalid_arg (Printf.sprintf "Checkers.find_exn: %s" name)

(** Evaluate every checker on a history. *)
let matrix ?budget (h : History.t) : (string * Spec.verdict) list =
  List.map
    (fun (c : Spec.checker) -> (c.Spec.name, c.Spec.check ?budget h))
    all

(* [implies.(i)]: the set of positions in [all] of every condition a Sat
   from checker [i] implies — the transitive closure of [edges] — as a
   bit mask. *)
let implies : int array =
  let names = List.map (fun (c : Spec.checker) -> c.Spec.name) all in
  let bit name =
    match List.find_index (String.equal name) names with
    | Some i -> 1 lsl i
    | None -> invalid_arg ("Checkers.edges: unregistered checker " ^ name)
  in
  let rec below name =
    List.fold_left
      (fun mask (stronger, weaker) ->
        if stronger = name then mask lor bit weaker lor below weaker
        else mask)
      0 edges
  in
  Array.of_list (List.map below names)

(** Names of the checkers a history satisfies, strongest first.  A
    checker runs only if no stronger checker has returned [Sat]; what a
    [Sat] implies is answered from the lattice, and the number of such
    answers is added to [checker_implied_total]. *)
let satisfied ?budget (h : History.t) : string list =
  (* [known]: the positions already answered Sat by the lattice *)
  let rec go i known implied = function
    | [] ->
        Tm_obs.Sink.add "checker_implied_total" implied;
        []
    | (c : Spec.checker) :: rest ->
        if known land (1 lsl i) <> 0 then
          c.Spec.name :: go (i + 1) known (implied + 1) rest
        else if Spec.sat (c.Spec.check ?budget h) then
          c.Spec.name :: go (i + 1) (known lor implies.(i)) implied rest
        else go (i + 1) known implied rest
  in
  go 0 0 0 all

(** The checkers that can produce a witness, for [--explain]-style
    tooling. *)
let explainers :
    (string * (?budget:int -> History.t -> Witness.t option)) list =
  [
    ("serializability", Serializability.explain);
    ("snapshot-isolation", Snapshot_isolation.explain);
    ("processor-consistency", Processor_consistency.explain);
    ("pram", Pram.explain);
    ("weak-adaptive", Weak_adaptive.explain);
  ]

let explain name ?budget h =
  Option.bind (List.assoc_opt name explainers) (fun f -> f ?budget h)

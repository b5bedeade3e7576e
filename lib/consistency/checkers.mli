(** Registry of all consistency checkers.

    {b Order.}  [all] is a topological order of the implication lattice
    {!edges}: the stronger end of every edge precedes its weaker end (the
    test suite checks this).  {!matrix} and {!satisfied} list conditions
    in this order, so the first name {!satisfied} returns is the
    strongest condition a history satisfies.

    {b Budgets.}  Every checker gets the same search-node [budget].
    {!matrix} runs all of them, so each verdict is that checker's own.
    {!satisfied} answers what a [Sat] implies without running the weaker
    checker: an implied [Sat] may stand where the weaker checker alone
    would run out of budget, but never where it would refute, since the
    lattice holds for these checkers. *)

open Tm_trace

val all : Spec.checker list
(** Strongest first, in a topological order of {!edges}.  Each checker
    records its verdict ([checker_verdict_total]) and latency
    ([checker_wall_ns]) in the default telemetry sink. *)

val edges : (string * string) list
(** (stronger, weaker) pairs by checker name: whenever the stronger
    condition holds, so does the weaker.  The lattice is drawn in
    {!Hierarchy}. *)

val find : string -> Spec.checker option
val find_exn : string -> Spec.checker

val matrix : ?budget:int -> History.t -> (string * Spec.verdict) list
(** Evaluate every checker on a history: the full evaluation, and the
    oracle {!satisfied} is tested against. *)

val satisfied : ?budget:int -> History.t -> string list
(** Names of the checkers a history satisfies, in the order of {!all}.
    Walks {!all} and runs a checker only if no stronger checker has
    returned [Sat]; every condition a [Sat] implies (the transitive
    closure of {!edges}) is answered without running it.  Adds the
    number of answers so taken to the [checker_implied_total] counter,
    once per call.  Equals the [Sat] names of {!matrix} whenever no
    verdict there is [Out_of_budget]. *)

val explainers :
  (string * (?budget:int -> History.t -> Witness.t option)) list

val explain : string -> ?budget:int -> History.t -> Witness.t option

(* Contention managers: the policy consulted between an abort and the
   retry.  The PCL theorem is precisely about what no TM can promise
   without one; a contention manager is the practical dodge — it trades
   the worst-case liveness guarantee for good behaviour under actual
   contention.  Each policy here decides, per abort, whether to retry
   immediately, back off (burning real simulation steps, so the decision
   is visible on the step axis like everything else), or give up.

   Backoff "waits" by reading a scratch base object through {!Proc.read}:
   in the simulator there is no wall clock, so the only meaningful way to
   wait is to spend scheduler quanta — which also means a backoff decision
   interacts with the adversary's schedule exactly like any other step. *)

open Tm_base
open Tm_runtime
open Tm_impl

type decision =
  | Retry_now
  | Backoff of int  (** spin for [n] simulation steps before retrying *)
  | Give_up

type ctx = {
  attempt : int;  (** 1-based index of the abort being handled *)
  karma : int;
      (** transactional operations invested across all attempts so far —
          the currency of the karma policy *)
  rand : Prng.t;  (** per-transaction deterministic stream, for jitter *)
}

type policy = {
  name : string;
  describe : string;
  max_attempts : int;
  decide : ctx -> decision;
}

(* -- the stock policies ------------------------------------------------ *)

let immediate =
  {
    name = "immediate";
    describe = "retry instantly; a short attempt bound is the only brake";
    max_attempts = 8;
    decide = (fun _ -> Retry_now);
  }

let backoff =
  let base = 64 and cap = 2048 in
  {
    name = "backoff";
    describe = "exponential backoff with deterministic jitter";
    max_attempts = 32;
    decide =
      (fun c ->
        let shift = min 6 (c.attempt - 1) in
        let spin = min cap (base lsl shift) in
        Backoff (spin + Prng.int c.rand base));
  }

let polite =
  {
    name = "polite";
    describe = "linearly increasing politeness: attempt k waits k quanta";
    max_attempts = 32;
    decide = (fun c -> Backoff (32 * c.attempt));
  }

let karma =
  {
    name = "karma";
    describe =
      "the more work a transaction has invested, the sooner it retries";
    max_attempts = 32;
    decide = (fun c -> Backoff (max 8 (256 / (1 + c.karma))));
  }

let all = [ immediate; backoff; polite; karma ]
let find n = List.find_opt (fun p -> p.name = n) all

let find_exn n =
  match find n with
  | Some p -> p
  | None ->
      invalid_arg
        (Printf.sprintf "Cm.find_exn: no contention manager named %S (have %s)"
           n
           (String.concat ", " (List.map (fun p -> p.name) all)))

(* -- running a transaction under a policy ------------------------------ *)

type 'a outcome =
  | Committed of 'a * int  (** the value and the number of aborts endured *)
  | Gave_up of int  (** aborts endured before the manager stopped retrying *)

(** Allocate the scratch object backoff spins on.  One per memory; call it
    from the simulation's setup so the object exists in C_0. *)
let scratch (mem : Memory.t) : Oid.t =
  match Memory.find mem "cm:scratch" with
  | Some oid -> oid
  | None -> Memory.alloc mem ~name:"cm:scratch" (Value.int 0)

(* Per-(cm, tm) telemetry handles, resolved by the pair's first
   transaction, which registers the four cells as it always did.
   [Sink.reset] zeroes cells in place, so the handles stay valid. *)
type counters = {
  c_retries : Tm_obs.Metrics.counter;
  c_backoff : Tm_obs.Metrics.counter;
  c_gave_up : Tm_obs.Metrics.counter;
  c_commits : Tm_obs.Metrics.counter;
}

let counters_of_pair : (string * string, counters) Hashtbl.t =
  Hashtbl.create 16

let counters (policy : policy) tm =
  match Hashtbl.find_opt counters_of_pair (policy.name, tm) with
  | Some c -> c
  | None ->
      let metrics = Tm_obs.Sink.metrics Tm_obs.Sink.default in
      let labels = [ ("cm", policy.name); ("tm", tm) ] in
      let c_of name = Tm_obs.Metrics.counter metrics ~labels name in
      let c =
        { c_retries = c_of "cm_retries_total";
          c_backoff = c_of "cm_backoff_steps_total";
          c_gave_up = c_of "cm_gave_up_total";
          c_commits = c_of "cm_commits_total" }
      in
      Hashtbl.add counters_of_pair (policy.name, tm) c;
      c

(** [atomically policy ~scratch ~seed ~tm handle ~pid body] — run [body]
    transactionally under [policy]: every abort is reported to the policy,
    backoff decisions spin on [scratch], and giving up (either the
    policy's choice or its attempt bound) yields [Gave_up] instead of an
    exception.  Per-(cm,tm) telemetry lands in the default metrics sink. *)
let atomically (policy : policy) ~(scratch : Oid.t) ~(seed : int)
    ~(tm : string) (handle : Txn_api.handle) ~pid
    (body : Txn_api.txn -> 'a Atomically.outcome) : 'a outcome =
  let rand = Prng.create seed in
  let aborts = ref 0 in
  let { c_retries; c_backoff; c_gave_up; c_commits } = counters policy tm in
  let spin n =
    for _ = 1 to n do
      ignore (Proc.read scratch)
    done;
    Tm_obs.Metrics.add c_backoff n
  in
  (* the karma policy weighs the reads and writes invoked over every
     aborted attempt, which [Txn_api] counts per attempt *)
  let karma = ref 0 and current = ref None in
  (* [Atomically.run] hands us the 0-based index of the attempt that just
     aborted; policies see the 1-based count of aborts endured *)
  let on_abort ~attempt =
    incr aborts;
    (match !current with
    | Some txn -> karma := !karma + Txn_api.invocations txn
    | None -> ());
    if attempt + 1 >= policy.max_attempts then false
    else
      match policy.decide { attempt = attempt + 1; karma = !karma; rand } with
      | Retry_now ->
          Tm_obs.Metrics.inc c_retries;
          true
      | Backoff n ->
          Tm_obs.Metrics.inc c_retries;
          spin n;
          true
      | Give_up -> false
  in
  match
    Atomically.run handle ~pid ~max_attempts:policy.max_attempts ~on_abort
      (fun txn ->
        current := Some txn;
        body txn)
  with
  | v ->
      Tm_obs.Metrics.inc c_commits;
      Committed (v, !aborts)
  | exception Atomically.Too_many_retries _ ->
      Tm_obs.Metrics.inc c_gave_up;
      Gave_up !aborts

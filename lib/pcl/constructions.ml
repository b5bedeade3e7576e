(* Assembling the proof's executions (Figures 1-4):

     alpha1 = T1 solo from C0 until C1^-        (s1 = next step of p1)
     alpha2 = T2 solo from C1^- until C2^-      (s2 = next step of p2)
     beta   = alpha1 . alpha2 . s1 . alpha3 . alpha4 . s2 . alpha7
     beta'  = alpha1 . alpha2 . s2 . alpha5 . alpha6 . s1 . alpha7'

   plus the auxiliary delta executions used by the claims. *)

open Tm_base
open Tm_runtime
open Tm_impl

type failure =
  | Liveness_failure of { phase : string; detail : string }
      (** a solo segment could not finish: blocking or solo abort *)
  | Consistency_no_flip of {
      writer : Tid.t;
      reader : Tid.t;
      item : Item.t;
      value : Value.t;
    }
      (** the reader never observes the writer's committed value *)
  | Crash of string

type t = {
  impl : Tm_intf.impl;
  k1 : int;  (** s1 is the k1-th step of T1's solo run *)
  s1 : Access_log.entry;
  k2 : int;  (** s2 is the k2-th step of T2's solo run from C1^- *)
  s2 : Access_log.entry;
  flip1 : Critical_step.found;
  flip2 : Critical_step.found;
}

let alpha1 c = [ Schedule.Steps (1, c.k1 - 1) ]
let s1_atom = Schedule.Steps (1, 1)
let alpha2 c = [ Schedule.Steps (2, c.k2 - 1) ]
let s2_atom = Schedule.Steps (2, 1)

(** beta = alpha1 . alpha2 . s1 . alpha3 . alpha4 . s2 . alpha7 *)
let beta c =
  alpha1 c @ alpha2 c
  @ [ s1_atom; Schedule.Until_done 3; Schedule.Until_done 4; s2_atom;
      Schedule.Until_done 7 ]

(** beta' = alpha1 . alpha2 . s2 . alpha5 . alpha6 . s1 . alpha7' *)
let beta' c =
  alpha1 c @ alpha2 c
  @ [ s2_atom; Schedule.Until_done 5; Schedule.Until_done 6; s1_atom;
      Schedule.Until_done 7 ]

(** delta1 = T1 solo to commit, then T3 solo to commit (used for the
    consistency evidence when the flip search fails, and by tests). *)
let delta1 = [ Schedule.Until_done 1; Schedule.Until_done 3 ]

(** alpha1 . s1 . alpha3 — the execution defining s1 (Figure 1, top). *)
let alpha1_s1_alpha3 c =
  alpha1 c @ [ s1_atom; Schedule.Until_done 3 ]

(** alpha1 . alpha3' — T3 solo from C1^- (Figure 1, bottom). *)
let alpha1_alpha3' c = alpha1 c @ [ Schedule.Until_done 3 ]

let of_flip_failure ~(writer : Tid.t) ~(reader : Tid.t) ~(item : Item.t)
    (r : Critical_step.result) : failure =
  match r with
  | Critical_step.No_flip { value; _ } ->
      Consistency_no_flip { writer; reader; item; value }
  | Critical_step.Liveness { phase; at_prefix } ->
      Liveness_failure
        {
          phase;
          detail =
            (match at_prefix with
            | None -> "solo run exceeded the step budget"
            | Some k ->
                Printf.sprintf
                  "solo run exceeded the step budget/aborted after %d writer \
                   steps"
                  k);
        }
  | Critical_step.Crashed msg -> Crash msg
  | Critical_step.Found _ -> assert false

(** Build the construction for a TM: locate s1 and s2. *)
let build (impl : Tm_intf.impl) : (t, failure) result =
  (* Figure 1: s1 flips T3's read of b1 from 0 *)
  match
    Critical_step.find impl ~prefix:[] ~writer:1 ~reader:3
      ~reader_tid:(Tid.v 3) ~item:Txns.b1 ~initial_value:Value.initial
  with
  | Critical_step.Found flip1 -> (
      let k1 = flip1.Critical_step.k in
      let prefix = [ Schedule.Steps (1, k1 - 1) ] in
      (* Figure 2: from C1^-, s2 flips T5's read of b2 from 0 *)
      match
        Critical_step.find impl ~prefix ~writer:2 ~reader:5
          ~reader_tid:(Tid.v 5) ~item:Txns.b2 ~initial_value:Value.initial
      with
      | Critical_step.Found flip2 ->
          Ok
            {
              impl;
              k1;
              s1 = flip1.Critical_step.step;
              k2 = flip2.Critical_step.k;
              s2 = flip2.Critical_step.step;
              flip1;
              flip2;
            }
      | other ->
          Error
            (of_flip_failure ~writer:(Tid.v 2) ~reader:(Tid.v 5)
               ~item:Txns.b2 other))
  | other ->
      Error
        (of_flip_failure ~writer:(Tid.v 1) ~reader:(Tid.v 3) ~item:Txns.b1
           other)

let pp_failure ppf = function
  | Liveness_failure { phase; detail } ->
      Fmt.pf ppf "liveness failure during %s: %s" phase detail
  | Consistency_no_flip { writer; reader; item; value } ->
      Fmt.pf ppf
        "consistency failure: %s never observes %s's committed write to %s \
         (still reads %a)"
        (Tid.name reader) (Tid.name writer) (Item.name item)
        Value.pp_compact value
  | Crash msg -> Fmt.pf ppf "crash: %s" msg

(** delta2 = alpha1 . alpha2 . s1 . alpha3 . alpha4 . alpha5' — the proof's
    Claim-4 auxiliary execution, in which T2 cannot be in com (T5 reads 0
    for b2). *)
let delta2 c =
  alpha1 c @ alpha2 c
  @ [ s1_atom; Schedule.Until_done 3; Schedule.Until_done 4;
      Schedule.Until_done 5 ]

(** delta5 = alpha1 . alpha2 . s2 . alpha5 . alpha6 . alpha3' — the
    Claim-5 auxiliary execution, in which T1 cannot be in com (T3 reads 0
    for b1). *)
let delta5 c =
  alpha1 c @ alpha2 c
  @ [ s2_atom; Schedule.Until_done 5; Schedule.Until_done 6;
      Schedule.Until_done 3 ]

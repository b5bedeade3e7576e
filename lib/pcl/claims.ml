(* Executing beta and beta' and checking every claim of the proof:

   Claim 1  — T1 invokes commit_T1 in alpha1.
   Claim 2  — s1 is non-trivial, on an object o1 that T3 reads in alpha3
              and alpha3' (and the same for s2 / o2 / T5).
   Claim 3  — o1 <> o2; and its disjoint-access premises: s1 is still the
              step p1 is poised to take after alpha1.alpha2, and alpha2
              applies no non-trivial primitive to any object T3 reads.
   Claim 4  — the Figure-5 value table for beta.
   Claim 5  — the Figure-6 value table for beta'.
   Final    — alpha7 and alpha7' are indistinguishable to p7, yet the two
              tables force different reads of 'a': the contradiction.

   On a real TM at least one check fails; the first failure localizes the
   property the TM lacks. *)

open Tm_base
open Tm_runtime
open Tm_impl
open Tm_trace

type value_check = {
  label : string;
  tid : Tid.t;
  item : Item.t;
  expected : Value.t;
  got : Value.t option;
  ok : bool;
}

let check_value r ~figure tid item expected =
  let got = Harness.read_of r tid item in
  {
    label = Printf.sprintf "%s: %s reads %s" figure (Tid.name tid)
        (Item.name item);
    tid;
    item;
    expected;
    got;
    ok = (match got with Some v -> Value.equal v expected | None -> false);
  }

(** Figure 5: values read by transactions in beta. *)
let fig5_expectations =
  [ (1, "b3", 0); (1, "b7", 0);
    (2, "b5", 0); (2, "b7", 0);
    (3, "b1", 1); (3, "b4", 0);
    (4, "d2", 0); (4, "c3", 1);
    (7, "a", 2); (7, "c1", 1); (7, "c2", 2) ]

(** Figure 6: values read by transactions in beta'. *)
let fig6_expectations =
  [ (1, "b3", 0); (1, "b7", 0);
    (2, "b5", 0); (2, "b7", 0);
    (5, "b2", 2); (5, "b6", 0);
    (6, "d1", 0); (6, "c5", 1);
    (7, "a", 1); (7, "c1", 1); (7, "c2", 2) ]

type side = {
  run : Harness.run;
  completed : bool;  (** the schedule ran to completion *)
  committed : Tid.t list;
  aborted : Tid.t list;
  checks : value_check list;
  dap_violations : Tm_dap.Strict_dap.violation list;
  of_violations : Tm_dap.Obstruction_freedom.violation list;
}

let make_side impl schedule ~figure ~expectations : side =
  let r = Harness.run impl schedule in
  let checks =
    List.map
      (fun (t, x, v) ->
        check_value r ~figure (Tid.v t) (Item.v x) (Value.int v))
      expectations
  in
  let h = r.Harness.sim.Sim.history in
  let log = Access_log.whole (Memory.log r.Harness.sim.Sim.mem) in
  {
    run = r;
    completed = Harness.stopped_normally r;
    committed = List.filter (fun t -> History.committed h t) (History.txns h);
    aborted = List.filter (fun t -> History.aborted h t) (History.txns h);
    checks;
    dap_violations =
      Tm_dap.Strict_dap.violations ~data_sets:Txns.data_sets log;
    of_violations = Tm_dap.Obstruction_freedom.violations h log;
  }

type details = {
  cons : Constructions.t;
  claim1 : bool;  (** commit_T1 invoked in alpha1 *)
  claim2_s1_nontrivial : bool;
  claim2_o1_read_by_t3 : bool;  (** in alpha3 (after s1) *)
  claim2_o1_read_by_t3' : bool;  (** in alpha3' (before s1) *)
  claim2_s2_nontrivial : bool;
  claim3 : bool;  (** o1 <> o2 *)
  premise_s1_stable : bool;  (** p1 poised to take s1 after alpha1.alpha2 *)
  premise_alpha2_noninterfering : bool;
      (** alpha2 has no non-trivial op on objects T3 reads *)
  beta : side;
  beta' : side;
  indistinguishable_p7 : (unit, string) result;
  contradiction : bool;
      (** both figure tables hold for T7's read of 'a': 2 in beta and 1 in
          beta' — impossible on a real execution *)
}

type report = {
  impl_name : string;
  outcome : (details, Constructions.failure) result;
}

let entry_sig (e : Access_log.entry) = (e.oid, e.prim, e.response)

let analyse (impl : Tm_intf.impl) : report =
  let (module M : Tm_intf.S) = impl in
  match Constructions.build impl with
  | Error f -> { impl_name = M.name; outcome = Error f }
  | Ok cons ->
      let run = Harness.run impl in
      (* Claim 1: T1 is commit-pending at C1^- *)
      let r_alpha1 = run (Constructions.alpha1 cons) in
      let claim1 =
        match
          History.status r_alpha1.Harness.sim.Sim.history (Tid.v 1)
        with
        | History.Commit_pending | History.Committed -> true
        | History.Aborted | History.Live -> false
      in
      (* Claim 2 *)
      let o1 = cons.Constructions.s1.Access_log.oid in
      let o2 = cons.Constructions.s2.Access_log.oid in
      let r_a3 = run (Constructions.alpha1_s1_alpha3 cons) in
      let r_a3' = run (Constructions.alpha1_alpha3' cons) in
      let claim2_o1_read_by_t3 =
        Oid.Set.mem o1 (Harness.objects_read_by r_a3 3)
      in
      let claim2_o1_read_by_t3' =
        Oid.Set.mem o1 (Harness.objects_read_by r_a3' 3)
      in
      (* Claim 3 premises *)
      let r_a12 =
        run (Constructions.alpha1 cons @ Constructions.alpha2 cons
             @ [ Constructions.s1_atom ])
      in
      let premise_s1_stable =
        match Harness.nth_step_of_pid r_a12 1 cons.Constructions.k1 with
        | Some e ->
            entry_sig e = entry_sig cons.Constructions.s1
        | None -> false
      in
      let premise_alpha2_noninterfering =
        let read_by_t3 = Harness.objects_read_by r_a3 3 in
        not
          (Oid.Set.exists
             (fun oid -> Harness.nontrivial_on r_a12 2 oid)
             read_by_t3)
      in
      (* the two main executions *)
      let beta =
        make_side impl (Constructions.beta cons) ~figure:"Fig5"
          ~expectations:fig5_expectations
      in
      let beta' =
        make_side impl (Constructions.beta' cons) ~figure:"Fig6"
          ~expectations:fig6_expectations
      in
      (* indistinguishability of alpha7 / alpha7' to p7 *)
      let indistinguishable_p7 =
        let s = Harness.step_signature beta.run 7 in
        let s' = Harness.step_signature beta'.run 7 in
        let rec cmp i l l' =
          match (l, l') with
          | [], [] -> Ok ()
          | (o, p, v) :: _, [] | [], (o, p, v) :: _ ->
              Error
                (Fmt.str "step %d exists on one side only: %a.%a -> %a" i
                   Fmt.int (Oid.to_int o) Primitive.pp_compact p
                   Value.pp_compact v)
          | (o, p, v) :: rest, (o', p', v') :: rest' ->
              if Oid.equal o o' && Primitive.equal p p' && Value.equal v v'
              then cmp (i + 1) rest rest'
              else
                Error
                  (Fmt.str
                     "p7 diverges at its step %d: oid %d %a -> %a vs oid %d \
                      %a -> %a"
                     i (Oid.to_int o) Primitive.pp_compact p Value.pp_compact
                     v (Oid.to_int o') Primitive.pp_compact p'
                     Value.pp_compact v')
        in
        cmp 1 s s'
      in
      let a_read side = Harness.read_of side.run (Tid.v 7) Txns.a in
      let contradiction =
        a_read beta = Some (Value.int 2) && a_read beta' = Some (Value.int 1)
        && Result.is_ok indistinguishable_p7
      in
      {
        impl_name = M.name;
        outcome =
          Ok
            {
              cons;
              claim1;
              claim2_s1_nontrivial =
                Primitive.non_trivial cons.Constructions.s1.Access_log.prim;
              claim2_o1_read_by_t3;
              claim2_o1_read_by_t3';
              claim2_s2_nontrivial =
                Primitive.non_trivial cons.Constructions.s2.Access_log.prim;
              claim3 = not (Oid.equal o1 o2);
              premise_s1_stable;
              premise_alpha2_noninterfering;
              beta;
              beta';
              indistinguishable_p7;
              contradiction;
            };
      }

let failed_checks (s : side) = List.filter (fun c -> not c.ok) s.checks

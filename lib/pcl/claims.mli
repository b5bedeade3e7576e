(** Executing beta and beta' and checking every claim of the proof
    (Claims 1-5, the Figure-5/6 value tables, p7's indistinguishability
    and the final contradiction).  On a real TM at least one check fails,
    and the first failure localizes the property the TM lacks. *)

open Tm_base
open Tm_impl

type value_check = {
  label : string;
  tid : Tid.t;
  item : Item.t;
  expected : Value.t;
  got : Value.t option;
  ok : bool;
}

val fig5_expectations : (int * string * int) list
val fig6_expectations : (int * string * int) list

type side = {
  run : Harness.run;
  completed : bool;
  committed : Tid.t list;
  aborted : Tid.t list;
  checks : value_check list;
  dap_violations : Tm_dap.Strict_dap.violation list;
  of_violations : Tm_dap.Obstruction_freedom.violation list;
}

type details = {
  cons : Constructions.t;
  claim1 : bool;  (** commit_T1 invoked in alpha1 *)
  claim2_s1_nontrivial : bool;
  claim2_o1_read_by_t3 : bool;
  claim2_o1_read_by_t3' : bool;
  claim2_s2_nontrivial : bool;
  claim3 : bool;  (** o1 <> o2 *)
  premise_s1_stable : bool;
  premise_alpha2_noninterfering : bool;
  beta : side;
  beta' : side;
  indistinguishable_p7 : (unit, string) result;
  contradiction : bool;
}

type report = {
  impl_name : string;
  outcome : (details, Constructions.failure) result;
}

val analyse : Tm_intf.impl -> report
val failed_checks : side -> value_check list

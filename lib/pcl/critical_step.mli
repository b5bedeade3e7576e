(** Locating the critical steps s1 and s2 (Figures 1-2).

    The proof's existence argument becomes a linear scan over solo-prefix
    lengths of the writer, probing what a later solo reader observes.  The
    possible outcomes map onto the PCL triangle: [Found] continues the
    construction; [No_flip] is the consistency-failure branch of the
    opening delta_1 case analysis; [Liveness] means the writer or reader
    could not finish solo. *)

open Tm_base
open Tm_runtime
open Tm_impl

type found = {
  k : int;  (** s = the k-th step of the writer's solo segment (1-based) *)
  step : Access_log.entry;
  before : Value.t;  (** reader's value from the configuration before s *)
  after : Value.t;  (** reader's value from the configuration after s *)
  writer_total : int;  (** steps of the writer's full solo segment *)
}

type result =
  | Found of found
  | No_flip of { writer_total : int; value : Value.t }
  | Liveness of { phase : string; at_prefix : int option }
  | Crashed of string

val entry :
  prefix:Schedule.atom list ->
  writer:int ->
  reader:int ->
  Tm_probe.Solo_probe.entry
(** The points {!find} reads, at {!Harness.default_budget}; exposed for
    the probe law in [test_probe]. *)

val find :
  Tm_intf.impl ->
  prefix:Schedule.atom list ->
  writer:int ->
  reader:int ->
  reader_tid:Tid.t ->
  item:Item.t ->
  initial_value:Value.t ->
  result

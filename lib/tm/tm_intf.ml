(* The TM-implementation signature (Section 3, "Transactions"): a TM
   algorithm provides begin_T, x.read(), x.write(v), commit_T and abort_T,
   implemented from atomic base-object primitives.

   Conventions:
   - All shared state lives in {!Tm_base.Memory} base objects, accessed
     exclusively through {!Tm_runtime.Proc.access}, so every shared access
     is one logged atomic step.  Context-local state is private to the
     process and invisible to others, as in the model.
   - [Error ()] is the paper's A_T answer: the transaction is aborted and
     no further operation may be invoked on the context.
   - [create] pre-allocates the shared representation of the given data
     items (the objects exist in the initial configuration).

   Every TM declares its corner of the P/C/L triangle once, as its
   [contract]; fuzz, chaos and conform hold it to that declaration, and
   the test suite checks the declaration against the verdict, the
   liveness classifier and the explore sweep. *)

open Tm_base

(** Liveness classes, strongest first (Section 3). *)
type liveness = Wait_free | Lock_free | Obstruction_free | Blocking

type contract = {
  strict_dap : bool;  (** strictly disjoint-access parallel *)
  condition : string;
      (** the consistency condition its committed transactions satisfy,
          as a checker name *)
  liveness : liveness;
}

module type S = sig
  val name : string

  val describe : string
  (** one-line positioning on the P/C/L triangle *)

  val contract : contract

  type t
  (** shared instance over one memory *)

  val create : Memory.t -> items:Item.t list -> t

  type ctx
  (** per-transaction context (process-local) *)

  val begin_txn : t -> pid:int -> tid:Tid.t -> ctx

  val read : ctx -> Item.t -> (Value.t, unit) result

  val write : ctx -> Item.t -> Value.t -> (unit, unit) result

  val try_commit : ctx -> (unit, unit) result

  val abort : ctx -> unit
end

type impl = (module S)

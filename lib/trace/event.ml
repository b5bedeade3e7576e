(* History events: invocations and responses of the transactional routines
   begin_T, x.read(), x.write(v), commit_T, abort_T (Section 3,
   "Histories"). *)

open Tm_base

type op =
  | Begin
  | Read of Item.t
  | Write of Item.t * Value.t
  | Try_commit
  | Abort_call  (** the explicit [abort_T] routine *)
[@@deriving show { with_path = false }, eq]

type resp =
  | R_ok  (** response to begin / successful write *)
  | R_value of Value.t  (** response to a successful read *)
  | R_committed  (** C_T *)
  | R_aborted  (** A_T *)
[@@deriving show { with_path = false }, eq]

type t =
  | Inv of { tid : Tid.t; pid : int; op : op; at : int }
  | Resp of { tid : Tid.t; pid : int; op : op; resp : resp; at : int }
[@@deriving show { with_path = false }, eq]

let tid = function Inv { tid; _ } | Resp { tid; _ } -> tid
let pid = function Inv { pid; _ } | Resp { pid; _ } -> pid

(** Global step count at which the event occurred (events are not steps of
    the access log themselves; [at] places them on the step axis). *)
let at = function Inv { at; _ } | Resp { at; _ } -> at

let op = function Inv { op; _ } | Resp { op; _ } -> op

let is_inv = function Inv _ -> true | Resp _ -> false

let pp_compact ppf = function
  | Inv { tid; op; _ } -> (
      match op with
      | Begin -> Fmt.pf ppf "inv begin_%s" (Tid.name tid)
      | Read x -> Fmt.pf ppf "inv %s:%s.read" (Tid.name tid) (Item.name x)
      | Write (x, v) ->
          Fmt.pf ppf "inv %s:%s.write(%a)" (Tid.name tid) (Item.name x)
            Value.pp_compact v
      | Try_commit -> Fmt.pf ppf "inv commit_%s" (Tid.name tid)
      | Abort_call -> Fmt.pf ppf "inv abort_%s" (Tid.name tid))
  | Resp { tid; resp; op; _ } -> (
      match resp with
      | R_ok -> Fmt.pf ppf "resp %s:ok" (Tid.name tid)
      | R_value v ->
          let item =
            match op with Read x -> Item.name x | _ -> "?"
          in
          Fmt.pf ppf "resp %s:%s=%a" (Tid.name tid) item Value.pp_compact v
      | R_committed -> Fmt.pf ppf "resp C_%s" (Tid.name tid)
      | R_aborted -> Fmt.pf ppf "resp A_%s" (Tid.name tid))

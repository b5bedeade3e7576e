(* Values stored in base objects and data items.

   The paper models data items as holding integers (every item starts at 0
   and transactions write small integers), but base objects of real TM
   algorithms hold richer state: version-stamped cells, locator tuples,
   lock words.  A small structured universe covers all of them without
   resorting to serialization. *)

type t =
  | VUnit
  | VBool of bool
  | VInt of int
  | VStr of string
  | VPair of t * t
  | VList of t list
[@@deriving show { with_path = false }, eq, ord]

let unit = VUnit

(* Values are immutable and compared structurally everywhere, so the two
   booleans and the small integers every TM's lock/version words cycle
   through can be shared instead of re-boxed on each step response. *)
let vtrue = VBool true
let vfalse = VBool false
let bool b = if b then vtrue else vfalse

let small_ints = Array.init 257 (fun i -> VInt (i - 1))
let int i = if i >= -1 && i <= 255 then Array.unsafe_get small_ints (i + 1) else VInt i
let str s = VStr s
let pair a b = VPair (a, b)
let list l = VList l

(** Initial value of every data item, as in the paper ("the initial value of
    every data item is considered to be 0"). *)
let initial = VInt 0

let to_int = function VInt i -> Some i | _ -> None

let to_int_exn v =
  match v with
  | VInt i -> i
  | _ -> invalid_arg (Printf.sprintf "Value.to_int_exn: %s" (show v))

let to_bool_exn v =
  match v with
  | VBool b -> b
  | _ -> invalid_arg (Printf.sprintf "Value.to_bool_exn: %s" (show v))

let to_pair_exn v =
  match v with
  | VPair (a, b) -> (a, b)
  | _ -> invalid_arg (Printf.sprintf "Value.to_pair_exn: %s" (show v))

let to_list_exn v =
  match v with
  | VList l -> l
  | _ -> invalid_arg (Printf.sprintf "Value.to_list_exn: %s" (show v))

(* Compact rendering for tables and figures: integers print bare. *)
let rec pp_compact ppf v =
  match v with
  | VUnit -> Fmt.string ppf "()"
  | VBool b -> Fmt.bool ppf b
  | VInt i -> Fmt.int ppf i
  | VStr s -> Fmt.string ppf s
  | VPair (a, b) -> Fmt.pf ppf "(%a,%a)" pp_compact a pp_compact b
  | VList l -> Fmt.pf ppf "[%a]" Fmt.(list ~sep:(any ";") pp_compact) l

let to_string v = Fmt.str "%a" pp_compact v

(* Transaction identifiers.  Chosen by the client (the PCL harness uses
   1..7 for the paper's T1..T7); uniqueness per run is the client's
   responsibility and is enforced by history well-formedness checks. *)

type t = int [@@deriving show { with_path = false }, eq, ord]

let v (i : int) : t =
  if i < 0 then invalid_arg "Tid.v: negative" else i

let to_int (t : t) : int = t

let pp_name ppf (t : t) = Fmt.pf ppf "T%d" t
let name (t : t) = "T" ^ string_of_int t

module Set = Set.Make (Int)
module Map = Map.Make (Int)

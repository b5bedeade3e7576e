(* All TM implementations, one per corner of the paper's triangle plus the
   candidate the theorem kills. *)

let all : Tm_intf.impl list =
  [
    (module Tl_tm);
    (module Pram_tm);
    (module Dstm_tm);
    (module Si_tm);
    (module Candidate_tm);
    (module Tl2_tm);
    (module Norec_tm);
    (module Llsc_tm);
    (module Lp_tm);
    (module Pwf_tm);
  ]

let name (module M : Tm_intf.S) = M.name

let is_prefix p s =
  String.length p <= String.length s && String.sub s 0 (String.length p) = p

type lookup =
  | Found of Tm_intf.impl
  | Ambiguous of string list  (** candidate names the prefix matches *)
  | Unknown

(** Exact name match first; otherwise a unique prefix resolves too, so
    [tl2] finds [tl2-clock] (while [tl] is [Ambiguous] between [tl-lock]
    and [tl2-clock]). *)
let lookup n : lookup =
  match List.find_opt (fun (module M : Tm_intf.S) -> M.name = n) all with
  | Some impl -> Found impl
  | None -> (
      match
        List.filter (fun (module M : Tm_intf.S) -> is_prefix n M.name) all
      with
      | [ impl ] -> Found impl
      | [] -> Unknown
      | several -> Ambiguous (List.map name several))

let find n = match lookup n with Found impl -> Some impl | _ -> None

let find_exn n =
  match lookup n with
  | Found impl -> impl
  | Ambiguous candidates ->
      invalid_arg
        (Printf.sprintf "Registry.find_exn: %S is ambiguous (matches %s)" n
           (String.concat ", " candidates))
  | Unknown ->
      invalid_arg (Printf.sprintf "Registry.find_exn: no TM named %S" n)

(* Causal serializability [Raynal, Thia-Kime & Ahamad 97], as positioned by
   the paper: processor consistency strengthened so that every sequential
   view additionally respects the causality relation on transactions.

   The causality relation is the transitive closure of
     - process order: T1, T2 by the same process with T1 <alpha T2, and
     - reads-from: T2 performs a global read of (x, v) and T1 is the unique
       transaction in com(alpha) whose last write to x has value v.
   When several transactions wrote the same value to the same item the
   reads-from edge is ambiguous and we omit it (our generators and the
   paper's constructions use distinguishable values, so this is exact for
   everything exercised here). *)

open Tm_base
open Tm_trace

let causal_prec (h : History.t) (tbl : Blocks.t) (tids : Tid.t list)
    (index_of : Tid.t -> int option) : (int * int) list =
  let n = List.length tids in
  let arr = Array.of_list tids in
  let txn = Array.map (Blocks.txn tbl) arr in
  let edge = Array.make_matrix n n false in
  (* process order *)
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      if
        i <> j
        && txn.(i).Blocks.pid = txn.(j).Blocks.pid
        && History.precedes h arr.(i) arr.(j)
      then edge.(i).(j) <- true
    done
  done;
  (* reads-from: interned ids, so equal ids are equal items and values,
     and value id 0 is the initial value *)
  let last_write_to (t : Blocks.txn) x =
    let w = t.Blocks.writes in
    let rec find k =
      if k >= Array.length w then -1
      else if w.(k) = x then w.(k + 1)
      else find (k + 2)
    in
    find 0
  in
  for j = 0 to n - 1 do
    let gr = txn.(j).Blocks.greads in
    for k = 0 to (Array.length gr / 2) - 1 do
      let x = gr.(2 * k) and v = gr.((2 * k) + 1) in
      if v <> 0 then begin
        let writers =
          List.filter
            (fun i -> i <> j && last_write_to txn.(i) x = v)
            (List.init n Fun.id)
        in
        match writers with [ i ] -> edge.(i).(j) <- true | _ -> ()
      end
    done
  done;
  (* transitive closure *)
  for k = 0 to n - 1 do
    for i = 0 to n - 1 do
      if edge.(i).(k) then
        for j = 0 to n - 1 do
          if edge.(k).(j) then edge.(i).(j) <- true
        done
    done
  done;
  let acc = ref [] in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      if edge.(i).(j) then
        match (index_of arr.(i), index_of arr.(j)) with
        | Some a, Some b -> acc := (a, b) :: !acc
        | _ -> ()
    done
  done;
  !acc

let check ?(budget = Spec.default_budget) (h : History.t) : Spec.verdict =
  let tbl = Blocks.table h in
  let bref = ref budget in
  Checker_util.exists_com h (fun com ->
      let views, pairs =
        Processor_consistency.build_views h tbl com
          ~extra_prec:(causal_prec h tbl)
      in
      Views.solve_agreeing ~budget:bref tbl views ~pairs)

let checker : Spec.checker = { Spec.name = "causal-serializability"; check }

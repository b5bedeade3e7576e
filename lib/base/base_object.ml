(* A base object: a value cell plus lock/reservation words so that the same
   object type can serve as register, CAS word, fetch&add counter, lock, or
   LL/SC cell.  [apply] is the atomic step semantics. *)

module Int_set = Set.Make (Int)

type t = {
  mutable value : Value.t;
  mutable lock_holder : int option;
  mutable reservations : Int_set.t;
      (* pids holding a valid load-linked reservation *)
}

let create value = { value; lock_holder = None; reservations = Int_set.empty }

let value t = t.value
let lock_holder t = t.lock_holder
let locked t = t.lock_holder <> None
let reservations t = Int_set.elements t.reservations

(** [apply_into t prim ~changed] atomically applies [prim]; returns the
    response and reports through [changed] whether any component of the
    state mutated.  The out-parameter form lets the hot path reuse one
    scratch ref instead of allocating a response pair per step. *)
let apply_into t (prim : Primitive.t) ~(changed : bool ref) : Value.t =
  match prim with
  | Read ->
      changed := false;
      t.value
  | Write v ->
      let c = not (Value.equal t.value v) in
      t.value <- v;
      (* any write invalidates outstanding LL reservations *)
      changed := c || not (Int_set.is_empty t.reservations);
      t.reservations <- Int_set.empty;
      Value.unit
  | Cas { expected; desired } ->
      if Value.equal t.value expected then begin
        changed :=
          (not (Value.equal t.value desired))
          || not (Int_set.is_empty t.reservations);
        t.value <- desired;
        t.reservations <- Int_set.empty;
        Value.bool true
      end
      else begin
        changed := false;
        Value.bool false
      end
  | Fetch_add n ->
      let old = Value.to_int_exn t.value in
      t.value <- Value.int (old + n);
      t.reservations <- Int_set.empty;
      changed := n <> 0;
      Value.int old
  | Try_lock pid -> (
      match t.lock_holder with
      | None ->
          t.lock_holder <- Some pid;
          changed := true;
          Value.bool true
      | Some holder ->
          changed := false;
          Value.bool (holder = pid))
  | Unlock pid -> (
      match t.lock_holder with
      | Some holder when holder = pid ->
          t.lock_holder <- None;
          changed := true;
          Value.unit
      | Some _ | None ->
          changed := false;
          Value.unit)
  | Load_linked pid ->
      t.reservations <- Int_set.add pid t.reservations;
      changed := false;
      t.value
  | Store_conditional (pid, v) ->
      if Int_set.mem pid t.reservations then begin
        t.value <- v;
        t.reservations <- Int_set.empty;
        changed := true;
        Value.bool true
      end
      else begin
        changed := false;
        Value.bool false
      end

(** [apply t prim] atomically applies [prim]; returns [(response, changed)]
    where [changed] reports whether any component of the state mutated. *)
let apply t (prim : Primitive.t) : Value.t * bool =
  let changed = ref false in
  let response = apply_into t prim ~changed in
  (response, !changed)


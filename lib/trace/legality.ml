(* Legality of complete sequential histories (Section 3):

   Transaction T is legal in a sequential history H if for every x.read()
   by T returning v: (i) if T wrote x before the read, v is the argument of
   the last such write; otherwise (ii) if a committed transaction preceding
   T wrote x, v is the argument of the last such write in H; otherwise
   (iii) v is the initial value of x.

   A complete sequential history is legal if every transaction is legal. *)

open Tm_base

type violation = {
  tid : Tid.t;
  item : Item.t;
  got : Value.t;
  expected : Value.t;
}

(** [check ?initial h] checks legality of the complete sequential history
    [h].  [initial] gives initial item values (default: the paper's 0). *)
let check ?(initial = fun (_ : Item.t) -> Value.initial) (h : History.t) :
    (unit, violation) result =
  if not (History.sequential h) then
    invalid_arg "Legality.check: history is not sequential";
  let committed_state : (Item.t, Value.t) Hashtbl.t = Hashtbl.create 16 in
  let lookup x =
    match Hashtbl.find_opt committed_state x with
    | Some v -> v
    | None -> initial x
  in
  let check_txn tid : (unit, violation) result =
    (* replay T's operations in order, tracking its own writes *)
    let own : (Item.t, Value.t) Hashtbl.t = Hashtbl.create 8 in
    let rec go = function
      | [] -> Ok ()
      | Event.Inv { op = Event.Write (x, v); _ } :: rest ->
          (* a write becomes "performed by T" once it gets an ok response;
             the next event is that response in a well-formed history *)
          (match rest with
          | Event.Resp { resp = Event.R_ok; _ } :: _ ->
              Hashtbl.replace own x v
          | _ -> ());
          go rest
      | Event.Resp { op = Event.Read x; resp = Event.R_value v; _ } :: rest
        ->
          let expected =
            match Hashtbl.find_opt own x with
            | Some w -> w
            | None -> lookup x
          in
          if Value.equal v expected then go rest
          else Error { tid; item = x; got = v; expected }
      | _ :: rest -> go rest
    in
    go (History.per_txn h tid)
  in
  let rec all = function
    | [] -> Ok ()
    | tid :: rest -> (
        match check_txn tid with
        | Ok () ->
            if History.committed h tid then
              List.iter
                (fun (x, v) -> Hashtbl.replace committed_state x v)
                (History.writes h tid);
            all rest
        | Error _ as e -> e)
  in
  all (History.begin_order h)

let legal ?initial h = Result.is_ok (check ?initial h)

(* The event-walk definitions of History's per-transaction queries, as they
   stood before History answered them from an index: every query walks the
   whole history, and some copy it into a list first.  Test-only: the slow
   oracle that test_consistency checks the indexed queries against. *)

open Core

let events h = Array.of_list (History.to_list h)

let per_txn h tid =
  List.filter (fun e -> Tid.equal (Event.tid e) tid) (History.to_list h)

let txns h =
  let seen = Hashtbl.create 16 in
  let acc = ref [] in
  Array.iter
    (fun e ->
      let tid = Event.tid e in
      if not (Hashtbl.mem seen tid) then begin
        Hashtbl.add seen tid ();
        acc := tid :: !acc
      end)
    (events h);
  List.rev !acc

let txn_count h =
  let seen = Hashtbl.create 16 in
  Array.iter
    (fun e ->
      let tid = Event.tid e in
      if not (Hashtbl.mem seen tid) then Hashtbl.add seen tid ())
    (events h);
  Hashtbl.length seen

let pid_of_txn h tid =
  match per_txn h tid with [] -> None | e :: _ -> Some (Event.pid e)

let status h tid =
  let rec last_two acc = function
    | [] -> acc
    | e :: rest -> last_two (Some e) rest
  in
  match per_txn h tid with
  | [] -> History.Live
  | evs -> (
      match last_two None evs with
      | Some (Event.Resp { resp = Event.R_committed; _ }) -> History.Committed
      | Some (Event.Resp { resp = Event.R_aborted; _ }) -> History.Aborted
      | Some (Event.Inv { op = Event.Try_commit; _ }) -> History.Commit_pending
      | Some _ | None -> History.Live)

let live h tid =
  match status h tid with
  | History.Committed | History.Aborted -> false
  | History.Commit_pending | History.Live -> true

let positions_of_txn h tid =
  let first = ref (-1) and last = ref (-1) in
  Array.iteri
    (fun i e ->
      if Tid.equal (Event.tid e) tid then begin
        if !first < 0 then first := i;
        last := i
      end)
    (events h);
  if !first < 0 then None else Some (!first, !last)

let begin_pos h tid =
  let evs = events h in
  let n = Array.length evs in
  let rec find i =
    if i >= n then None
    else
      match evs.(i) with
      | Event.Inv { tid = tid'; op = Event.Begin; _ } when Tid.equal tid' tid
        ->
          Some i
      | _ -> find (i + 1)
  in
  find 0

let begin_order h =
  let key tid = match begin_pos h tid with Some i -> i | None -> max_int in
  List.sort (fun a b -> compare (key a) (key b)) (txns h)

let precedes h t1 t2 =
  if live h t1 then false
  else
    match (Option.map snd (positions_of_txn h t1), begin_pos h t2) with
    | Some l1, Some b2 -> l1 < b2
    | _ -> false

let concurrent h t1 t2 =
  (not (Tid.equal t1 t2)) && (not (precedes h t1 t2)) && not (precedes h t2 t1)

let reads h tid =
  let written = Hashtbl.create 8 in
  let acc = ref [] in
  Array.iteri
    (fun i e ->
      match e with
      | Event.Inv { tid = tid'; op = Event.Write (x, _); _ }
        when Tid.equal tid' tid ->
          Hashtbl.replace written x ()
      | Event.Resp { tid = tid'; op = Event.Read x; resp = Event.R_value v; _ }
        when Tid.equal tid' tid ->
          let global = not (Hashtbl.mem written x) in
          acc := { History.item = x; value = v; global; pos = i } :: !acc
      | _ -> ())
    (events h);
  List.rev !acc

let writes h tid =
  let pending = ref None in
  let acc = ref [] in
  Array.iter
    (fun e ->
      match e with
      | Event.Inv { tid = tid'; op = Event.Write (x, v); _ }
        when Tid.equal tid' tid ->
          pending := Some (x, v)
      | Event.Resp { tid = tid'; op = Event.Write _; resp = Event.R_ok; _ }
        when Tid.equal tid' tid -> (
          match !pending with
          | Some wv ->
              acc := wv :: !acc;
              pending := None
          | None -> ())
      | _ -> ())
    (events h);
  List.rev !acc

let write_set h tid = Item.set_of_list (List.map fst (writes h tid))

let read_set h tid =
  Item.set_of_list
    (List.map (fun (r : History.read) -> r.History.item) (reads h tid))

(* Well-formedness as it stood before History judged it in one walk of
   each transaction's chain: every transaction's H|T is built as a list
   and run through each check in turn. *)
let well_formed h : (unit, string) result =
  let err tid fmt = Fmt.kstr (fun s -> Error (Tid.name tid ^ ": " ^ s)) fmt in
  let check_txn tid =
    let evs = per_txn h tid in
    (* (i) alternating, starting with begin . ok *)
    let rec alternating expecting_inv = function
      | [] -> Ok ()
      | e :: rest ->
          if Event.is_inv e <> expecting_inv then
            err tid "invocations and responses do not alternate"
          else alternating (not expecting_inv) rest
    in
    let ( let* ) = Result.bind in
    let* () =
      match evs with
      | Event.Inv { op = Event.Begin; _ }
        :: Event.Resp { op = Event.Begin; resp = Event.R_ok; _ }
        :: _ ->
          Ok ()
      | [ Event.Inv { op = Event.Begin; _ } ] -> Ok ()
      | _ -> err tid "does not start with begin . ok"
    in
    let* () = alternating true evs in
    (* responses match invocations; (ii)-(v) *)
    let rec matched = function
      | [] | [ _ ] -> Ok ()
      | Event.Inv { op; _ } :: (Event.Resp { op = op'; resp; _ } as r) :: rest
        ->
          if not (Event.equal_op op op') then
            err tid "response for a different operation"
          else
            let ok =
              match (op, resp) with
              | Event.Begin, Event.R_ok -> true
              | Event.Read _, (Event.R_value _ | Event.R_aborted) -> true
              | Event.Write _, (Event.R_ok | Event.R_aborted) -> true
              | Event.Try_commit, (Event.R_committed | Event.R_aborted) ->
                  true
              | Event.Abort_call, Event.R_aborted -> true
              | _ -> false
            in
            if ok then matched (r :: rest) else err tid "ill-typed response"
      | Event.Resp _ :: rest -> matched rest
      | Event.Inv _ :: _ -> err tid "invocation followed by invocation"
    in
    let* () = matched evs in
    (* (vi) nothing after C_T or A_T *)
    let rec no_tail = function
      | [] -> Ok ()
      | Event.Resp { resp = Event.R_committed | Event.R_aborted; _ } :: rest
        ->
          if rest = [] then Ok () else err tid "events after C_T/A_T"
      | _ :: rest -> no_tail rest
    in
    no_tail evs
  in
  let rec all = function
    | [] -> Ok ()
    | tid :: rest -> (
        match check_txn tid with Ok () -> all rest | Error _ as e -> e)
  in
  (* each process runs its transactions sequentially *)
  let process_sequential =
    let current = Hashtbl.create 8 in
    Array.for_all
      (fun e ->
        let pid = Event.pid e and tid = Event.tid e in
        match Hashtbl.find_opt current pid with
        | Some tid' when not (Tid.equal tid tid') ->
            if live h tid' then false
            else begin
              Hashtbl.replace current pid tid;
              true
            end
        | _ ->
            Hashtbl.replace current pid tid;
            true)
      (events h)
  in
  if not process_sequential then
    Error "a process interleaves two of its own transactions"
  else all (txns h)

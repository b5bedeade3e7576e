(* The commit-avoiding adversary as it stood before it kept one live
   cursor: at every decision it replays the whole extended path from C0
   and counts commits through per-client references.  Test-only: the slow
   oracle that test_probe checks [Liveness_class.find_livelock] against. *)

open Core

let x_item = Item.v "x"

let retry_client (handle : Txn_api.handle) ~pid ~committed () =
  let rec attempt n =
    let tid = Tid.v ((pid * 1000) + n) in
    let txn = handle.Txn_api.begin_txn ~pid ~tid in
    let result =
      match Txn_api.read txn x_item with
      | Error () -> Error ()
      | Ok v -> (
          let v' =
            Value.int (Option.value ~default:0 (Value.to_int v) + 1)
          in
          match Txn_api.write txn x_item v' with
          | Error () -> Error ()
          | Ok () -> Txn_api.try_commit txn)
    in
    match result with
    | Ok () -> incr committed
    | Error () -> attempt (n + 1)
  in
  attempt 0

let livelock_setup impl committed1 committed2 : Sim.setup =
 fun mem recorder ->
  let handle =
    Txn_api.instantiate impl mem recorder ~items:[ x_item; Item.v "y" ]
  in
  [
    (1, retry_client handle ~pid:1 ~committed:committed1);
    (2, retry_client handle ~pid:2 ~committed:committed2);
  ]

let find_livelock ?(horizon = 300) impl : int option =
  let run_path path_rev =
    let c1 = ref 0 and c2 = ref 0 in
    let atoms = List.rev_map (fun pid -> Schedule.Steps (pid, 1)) path_rev in
    let r = Sim.replay ~budget:10_000 (livelock_setup impl c1 c2) atoms in
    (!c1 + !c2, r)
  in
  let rec go path_rev n last =
    if n >= horizon then Some n
    else
      let order = if last = 1 then [ 2; 1 ] else [ 1; 2 ] in
      let rec try_pids = function
        | [] -> None
        | pid :: rest ->
            let commits, r = run_path (pid :: path_rev) in
            if commits = 0 && not (r.Sim.finished pid) then
              go (pid :: path_rev) (n + 1) pid
            else try_pids rest
      in
      try_pids order
  in
  go [] 0 2

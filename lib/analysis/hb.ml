(* The happens-before engine: a single forward pass over the step trace
   maintaining one vector clock per process and one release clock per base
   object.

   Ordering sources:
   - program order: each step ticks its process's own component;
   - synchronization: an RMW-class primitive (CAS, fetch&add, try-lock,
     unlock, LL/SC) on object o joins the process clock with o's release
     clock and stores the result back — so all RMW steps on one object
     form a chain, exactly the total order their atomicity gives them.

   - realtime transaction order (only when a history is supplied): the
     first step of transaction T joins the clocks of every transaction
     that completed before T was invoked.  A TM is entitled to rely on
     "T' finished before T began", so a serial execution is totally
     ordered and lint-clean even if the TM uses only plain accesses.

   Plain reads and writes deliberately do NOT synchronize: they are the
   data accesses the race pass checks for unordered conflicting pairs.  A
   TM whose only ordering between two conflicting data accesses of
   overlapping transactions is "they happened to linearize in this order"
   has a base-object race; a TM that protects them with locks/CAS metadata
   induces a happens-before edge through that metadata and is race-free. *)

open Tm_base
open Tm_trace

(* the clock of each step of the window, by offset *)
type t = Vclock.t array

let is_sync : Primitive.t -> bool = function
  | Primitive.Read | Primitive.Write _ -> false
  | Primitive.Cas _ | Primitive.Fetch_add _ | Primitive.Try_lock _
  | Primitive.Unlock _ | Primitive.Load_linked _
  | Primitive.Store_conditional _ ->
      true

let analyse ?history (w : Access_log.window) : t =
  let { Access_log.log; pos; len; _ } = w in
  let pid_clock : (int, Vclock.t) Hashtbl.t = Hashtbl.create 8 in
  let obj_clock : (Oid.t, Vclock.t) Hashtbl.t = Hashtbl.create 64 in
  let tid_clock : (Tid.t, Vclock.t) Hashtbl.t = Hashtbl.create 8 in
  let started : (Tid.t, unit) Hashtbl.t = Hashtbl.create 8 in
  let clock_of tbl k =
    Option.value ~default:Vclock.empty (Hashtbl.find_opt tbl k)
  in
  (* realtime order, precomputed: completed transactions sorted by
     completion position.  The join over "everything that completed
     before [t] began" is a prefix of that array (completion position <
     [t]'s begin position), so cached prefix joins make the whole walk
     amortized linear in the number of transactions.  A prefix entry is
     only demanded once the later transaction's first step is reached,
     by which point the completed predecessor has taken all its steps and
     its [tid_clock] is final. *)
  let completions =
    match history with
    | None -> [||]
    | Some h ->
        Array.of_list
          (List.sort compare
             (List.filter_map
                (fun t' ->
                  if History.live h t' then None
                  else
                    Option.map (fun l -> (l, t')) (History.last_pos h t'))
                (History.txns h)))
  in
  let prefix = Array.make (Array.length completions + 1) Vclock.empty in
  let filled = ref 0 in
  let prefix_join k =
    while !filled < k do
      let _, t' = completions.(!filled) in
      prefix.(!filled + 1) <-
        Vclock.join prefix.(!filled) (clock_of tid_clock t');
      incr filled
    done;
    prefix.(k)
  in
  let begin_pos =
    match history with
    | None -> fun _ -> None
    | Some h -> fun t -> History.begin_pos h t
  in
  (* the join of the final clocks of every txn that completed before [t]
     was invoked: the prefix of completions below [t]'s begin position *)
  let predecessor_clock t =
    match begin_pos t with
    | None -> Vclock.empty
    | Some b ->
        let rec count lo hi =
          (* completions.(0..count-1) have completion position < b *)
          if lo >= hi then lo
          else
            let mid = (lo + hi) / 2 in
            if fst completions.(mid) < b then count (mid + 1) hi
            else count lo mid
        in
        prefix_join (count 0 (Array.length completions))
  in
  Array.init len (fun k ->
      let p = pos + k in
      let pid = Access_log.pid_at log p and t = Access_log.tid_int_at log p in
      let before = clock_of pid_clock pid in
      let before =
        if t >= 0 && not (Hashtbl.mem started t) then begin
          Hashtbl.add started t ();
          Vclock.join before (predecessor_clock t)
        end
        else before
      in
      let ticked = Vclock.tick before pid in
      let after =
        if is_sync (Access_log.prim_at log p) then begin
          let o = Access_log.oid_at log p in
          let joined = Vclock.join ticked (clock_of obj_clock o) in
          Hashtbl.replace obj_clock o joined;
          joined
        end
        else ticked
      in
      Hashtbl.replace pid_clock pid after;
      if t >= 0 then Hashtbl.replace tid_clock t after;
      after)

let length = Array.length

let clock t k =
  if k < 0 || k >= Array.length t then
    invalid_arg (Printf.sprintf "Hb.clock: offset %d out of range" k);
  t.(k)

(* a happens-before b iff a's step clock is below b's: a's tick is
   included in b's knowledge.  Comparing the two clocks plus distinctness
   gives irreflexivity and matches the epoch reading: step a of pid p is
   the (get (clock a) p)-th step of p, and b knows it iff
   get (clock b) p >= that. *)
let happens_before t a b = a <> b && Vclock.leq (clock t a) (clock t b)

let concurrent_pos t a b =
  (not (happens_before t a b)) && not (happens_before t b a)

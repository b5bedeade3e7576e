(* Multi-view search with write-order agreement.

   Processor consistency (Def. 3.2, condition 1b) and weak adaptive
   consistency (Def. 3.3, condition 2) allow each process its own
   serialization but require writes to a common data item to be ordered the
   same way in every view.  We search views process by process: each
   solution of a view fixes a direction for every common-writer pair, and
   those directions become precedence constraints on the remaining views.
   Solutions of a view are deduplicated by that direction signature.

   The pairs are indexed once per call: a signature is one character per
   pair index, and the string is its own dedup key. *)

open Tm_base

type view = { view_pid : int; problem : Placement.problem }

(** Is there a choice of one placement per view such that all views agree
    on the direction of every pair in [pairs]?  When satisfiable and
    [witness] is given, it receives each view's chosen order (point
    indices) keyed by view pid. *)
let solve_agreeing ?(witness : (int * int list) list ref option)
    ~(budget : int ref) (tbl : Blocks.t) (views : view list)
    ~(pairs : (int * int) array) : Spec.verdict =
  let np = Array.length pairs in
  (* the constraints of a committed signature: '<' puts the pair's first
     point first *)
  let constrain (sg : string) prec =
    let prec = ref prec in
    for k = np - 1 downto 0 do
      let a, b = pairs.(k) in
      prec := (if sg.[k] = '<' then (a, b) else (b, a)) :: !prec
    done;
    !prec
  in
  let rec go views (committed : string option) acc : Spec.verdict =
    match views with
    | [] ->
        (match witness with
        | Some r -> r := List.rev acc
        | None -> ());
        Spec.Sat
    | v :: rest -> (
        let problem =
          match committed with
          | None -> v.problem
          | Some sg ->
              {
                v.problem with
                Placement.prec = constrain sg v.problem.Placement.prec;
              }
        in
        let pos = Array.make (Array.length problem.Placement.points) 0 in
        let seen = Hashtbl.create 16 in
        let result = ref Spec.Unsat in
        let outcome =
          Placement.solve ~budget tbl problem ~on_solution:(fun order ->
              List.iteri (fun i pt -> pos.(pt) <- i) order;
              let sg =
                String.init np (fun k ->
                    let a, b = pairs.(k) in
                    if pos.(a) < pos.(b) then '<' else '>')
              in
              if Hashtbl.mem seen sg then false
              else begin
                Hashtbl.replace seen sg ();
                (* the constraints made this view agree with every
                   committed direction, so its signature extends them *)
                match go rest (Some sg) ((v.view_pid, order) :: acc) with
                | Spec.Sat ->
                    result := Spec.Sat;
                    true
                | Spec.Out_of_budget ->
                    if !result = Spec.Unsat then result := Spec.Out_of_budget;
                    false
                | Spec.Unsat -> false
              end)
        in
        match outcome with
        | Placement.Stopped | Placement.Exhausted -> !result
        | Placement.Budget_exceeded ->
            if !result = Spec.Unsat then Spec.Out_of_budget else !result)
  in
  go views None []

(** Unordered pairs of distinct transactions in [tids] whose write sets
    intersect — the pairs subject to agreement. *)
let common_writer_pairs (tbl : Blocks.t) (tids : Tid.t list) :
    (Tid.t * Tid.t) list =
  let rec go = function
    | [] -> []
    | a :: rest ->
        let ta = Blocks.txn tbl a in
        List.filter_map
          (fun b ->
            if Blocks.write_common ta (Blocks.txn tbl b) then Some (a, b)
            else None)
          rest
        @ go rest
  in
  go tids

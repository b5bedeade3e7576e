(* Figure-style timeline rendering: the executions of the paper's figures
   as terminal art.  One lane per process on a global column axis that
   interleaves atomic steps with the transactional events sitting between
   them (begin '(' , commit 'C', abort 'A'); below the lanes an optional
   witness row ('^' under the steps a verdict points at) and one contention
   row per base object touched by more than one process.

   Pure ASCII so golden tests are stable across terminals. *)

open Tm_base

(* one rendered column: an atomic step, or a transactional event marker *)
type col =
  | Step of Access_log.entry
  | Mark of { pid : int; ch : char; label : string }

let prim_char p =
  (* parallel to Primitive.kind_names *)
  [| 'r'; 'w'; 'c'; 'f'; 'L'; 'u'; 'l'; 's' |].(Primitive.kind_index p)

let mark_of_event = function
  | Event.Inv { pid; op = Event.Begin; tid; at = _; _ } ->
      Some (Mark { pid; ch = '('; label = Tid.name tid })
  | Event.Resp { pid; resp = Event.R_committed; tid; _ } ->
      Some (Mark { pid; ch = 'C'; label = Tid.name tid })
  | Event.Resp { pid; resp = Event.R_aborted; tid; _ } ->
      Some (Mark { pid; ch = 'A'; label = Tid.name tid })
  | _ -> None

(* Merge the window's steps (ordered by index) with event markers
   (ordered by [at], history order preserved on ties).  An event with
   [at] = k happened after step k-1 and before step k, so its marker
   column precedes the step column of index k. *)
let columns (steps : Access_log.window) (history : History.t) : col list =
  let marks =
    List.filter_map
      (fun e ->
        match mark_of_event e with
        | Some m -> Some (Event.at e, m)
        | None -> None)
      (History.to_list history)
  in
  let { Access_log.len; first; _ } = steps in
  let rec merge marks k acc =
    match marks with
    | (at, m) :: rest when k = len || at <= first + k ->
        merge rest k (m :: acc)
    | _ when k < len ->
        merge marks (k + 1) (Step (Access_log.step steps k) :: acc)
    | _ -> List.rev acc
  in
  merge marks 0 []

let legend =
  "legend: ( begin  C committed  A aborted  r read  w write  c cas  f faa  \
   L trylock  u unlock  l ll  s sc  |  x non-trivial  - trivial  ^ witness"

let render ?(width = 72) ?(highlight = []) ~names (history : History.t)
    (steps : Access_log.window) : string =
  let cols = Array.of_list (columns steps history) in
  let n = Array.length cols in
  if n = 0 then "(empty trace)\n"
  else begin
    let pids =
      let tbl = Hashtbl.create 8 in
      Array.iter
        (function
          | Step e -> Hashtbl.replace tbl e.Access_log.pid ()
          | Mark { pid; _ } -> Hashtbl.replace tbl pid ())
        cols;
      List.sort compare (Hashtbl.fold (fun pid () acc -> pid :: acc) tbl [])
    in
    (* base objects touched by >= 2 distinct pids get a contention row *)
    let contended =
      let tbl = Hashtbl.create 8 in
      Array.iter
        (function
          | Step e ->
              let seen =
                Option.value ~default:[]
                  (Hashtbl.find_opt tbl e.Access_log.oid)
              in
              if not (List.mem e.Access_log.pid seen) then
                Hashtbl.replace tbl e.Access_log.oid (e.Access_log.pid :: seen)
          | Mark _ -> ())
        cols;
      Hashtbl.fold
        (fun oid pids acc -> if List.length pids >= 2 then oid :: acc else acc)
        tbl []
      |> List.sort compare
    in
    let lane_label pid = Printf.sprintf "p%d" pid in
    let cont_label oid = Printf.sprintf "x:%s" (names oid) in
    let label_w =
      List.fold_left max (String.length "witness")
        (List.map
           (fun s -> String.length s)
           (List.map lane_label pids @ List.map cont_label contended))
      + 2
    in
    let pad s = Printf.sprintf "%-*s" label_w s in
    (* full-length rows, chunked into bands afterwards *)
    let lane =
      List.map
        (fun pid ->
          ( lane_label pid,
            String.init n (fun i ->
                match cols.(i) with
                | Step e when e.Access_log.pid = pid ->
                    prim_char e.Access_log.prim
                | Mark { pid = p; ch; _ } when p = pid -> ch
                | _ -> '.') ))
        pids
    in
    let witness =
      if highlight = [] then []
      else
        [
          ( "witness",
            String.init n (fun i ->
                match cols.(i) with
                | Step e when List.mem e.Access_log.index highlight -> '^'
                | _ -> ' ') );
        ]
    in
    let contention =
      List.map
        (fun oid ->
          ( cont_label oid,
            String.init n (fun i ->
                match cols.(i) with
                | Step e when Oid.equal e.Access_log.oid oid ->
                    if Primitive.trivial e.Access_log.prim then '-' else 'x'
                | _ -> '.') ))
        contended
    in
    let rows = lane @ witness @ contention in
    (* ruler: the step index of every 10th step, written at its column *)
    let ruler = Bytes.make n ' ' in
    Array.iteri
      (fun i c ->
        match c with
        | Step e when e.Access_log.index mod 10 = 0 ->
            let s = string_of_int e.Access_log.index in
            String.iteri
              (fun k ch -> if i + k < n then Bytes.set ruler (i + k) ch)
              s
        | _ -> ())
      cols;
    let ruler = Bytes.to_string ruler in
    let buf = Buffer.create 1024 in
    let n_bands = (n + width - 1) / width in
    for b = 0 to n_bands - 1 do
      let off = b * width in
      let len = min width (n - off) in
      if b > 0 then Buffer.add_char buf '\n';
      Buffer.add_string buf (pad "step");
      Buffer.add_string buf (String.sub ruler off len);
      Buffer.add_char buf '\n';
      List.iter
        (fun (label, row) ->
          Buffer.add_string buf (pad label);
          Buffer.add_string buf (String.sub row off len);
          Buffer.add_char buf '\n')
        rows
    done;
    Buffer.add_string buf legend;
    Buffer.add_char buf '\n';
    Buffer.contents buf
  end

(** Render an execution captured by the flight recorder; [highlight]
    defaults to the union of its verdicts' witness steps. *)
let render_flight ?width ?highlight (fl : Flight.t) : string =
  let highlight =
    match highlight with
    | Some h -> h
    | None ->
        List.concat_map
          (fun (v : Flight.verdict) -> v.Flight.witness_steps)
          (Flight.verdicts fl)
        |> List.sort_uniq compare
  in
  render ?width ~highlight
    ~names:(fun oid -> Flight.name_of fl oid)
    (Flight.history fl) (Flight.steps fl)

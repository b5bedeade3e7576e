(* The traced run's span recorder.  Spans are taken only in the
   benchmark's own code, around its calls into the program's public
   functions; each records its name, start, end and the span that was
   open when it started.  Spans stay in memory and are summarised when
   the run ends: a span's self time is its duration minus the durations
   of the spans it caused. *)

type span = {
  id : int;
  name : string;
  parent : int;
  start : float;
  stop : float;
  words : float;
      (** words allocated while the span was open (0 unless counted) *)
}

type t = {
  mutable spans : span list;  (** finished spans, newest first *)
  mutable open_ : (int * string * float * float) list;  (** the open stack *)
  mutable next : int;
}

let create () = { spans = []; open_ = []; next = 0 }

(** [with_ ~count_words t name f] runs [f] inside a span.  Counting
    words forces a minor collection at each end (see Sampler), so it is
    for coarse spans only. *)
let with_ ?(count_words = false) t name f =
  let words () = if count_words then Sampler.allocated_words () else 0. in
  let id = t.next in
  t.next <- id + 1;
  let parent = match t.open_ with (p, _, _, _) :: _ -> p | [] -> -1 in
  let w0 = words () in
  t.open_ <- (id, name, Unix.gettimeofday (), w0) :: t.open_;
  let finish () =
    let stop = Unix.gettimeofday () in
    let w = words () in
    match t.open_ with
    | (id', name', start, w0) :: rest when id' = id ->
        t.open_ <- rest;
        t.spans <-
          { id; name = name'; parent; start; stop; words = w -. w0 } :: t.spans
    | _ -> invalid_arg "Spans.with_: spans closed out of order"
  in
  match f () with
  | r ->
      finish ();
      r
  | exception e ->
      finish ();
      raise e

(** Record a span whose boundaries were observed by a callback rather
    than by wrapping a call; its parent is the innermost open span. *)
let record t name ~start ~stop =
  let id = t.next in
  t.next <- id + 1;
  let parent = match t.open_ with (p, _, _, _) :: _ -> p | [] -> -1 in
  t.spans <- { id; name; parent; start; stop; words = 0. } :: t.spans

(** Durations (seconds) of every span with this name, oldest first. *)
let durations t name =
  List.rev
    (List.filter_map
       (fun s -> if s.name = name then Some (s.stop -. s.start) else None)
       t.spans)

let total t name = List.fold_left ( +. ) 0. (durations t name)

(** Words allocated inside the spans with this name. *)
let words t name =
  List.fold_left
    (fun acc s -> if s.name = name then acc +. s.words else acc)
    0. t.spans

(** Summed self time (seconds) of the spans with this name. *)
let self t name =
  let child = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child s.parent
          (s.stop -. s.start
          +. Option.value ~default:0. (Hashtbl.find_opt child s.parent)))
    t.spans;
  List.fold_left
    (fun acc s ->
      if s.name = name then
        acc
        +. (s.stop -. s.start)
        -. Option.value ~default:0. (Hashtbl.find_opt child s.id)
      else acc)
    0. t.spans

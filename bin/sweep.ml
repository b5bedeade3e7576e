(* The sweep skeleton: what the seven sweep subcommands (explore, fuzz,
   lint, chaos, cost, soak, conform) share, defined once.  It owns the
   TM selection, the --seed/--json/-o/--watch/--record vocabulary and
   the count converter, the emit contract, the watch lifecycle and every
   artifact the CLI writes.  A subcommand supplies its items, a row
   function returning its JSONL lines and its text, its footer and the
   reason it exits with. *)

open Core
open Cmdliner

(* ------------------------------------------------------------------ *)
(* TM selection *)

let tm =
  let doc = "TM implementation (see `pcl_tm list')." in
  Arg.(value & opt (some string) None & info [ "t"; "tm" ] ~docv:"TM" ~doc)

let impls_of = function
  | None -> Registry.all
  | Some n -> (
      match Registry.lookup n with
      | Registry.Found i -> [ i ]
      | Registry.Ambiguous candidates ->
          Fmt.failwith "ambiguous TM %S: matches %s" n
            (String.concat ", " candidates)
      | Registry.Unknown -> Fmt.failwith "unknown TM %S (try `pcl_tm list')" n)

let all_tms =
  Arg.(
    value & flag
    & info [ "all-tms" ]
        ~doc:
          "Sweep every TM in the registry (the default when no $(b,-t) is \
           given).")

(** Every registered TM under [--all-tms], else those [-t] selects. *)
let select ~all_tms tm = if all_tms then Registry.all else impls_of tm

(* ------------------------------------------------------------------ *)
(* flags *)

(** An integer flag limited to [min..max] ([max] unbounded by default);
    any other value is a usage error that names the flag. *)
let count ?(min = 0) ?max names ~default ~docv doc =
  let expected =
    match max with
    | Some hi -> Printf.sprintf "an integer in %d..%d" min hi
    | None when min = 0 -> "a non-negative integer"
    | None -> Printf.sprintf "an integer of at least %d" min
  in
  let hi = Option.value max ~default:max_int in
  let parse s =
    match Arg.conv_parser Arg.int s with
    | Ok n when n < min || n > hi ->
        Error
          (`Msg (Printf.sprintf "invalid value '%s', expected %s" s expected))
    | r -> r
  in
  Arg.(
    value
    & opt (conv (parse, Format.pp_print_int)) default
    & info names ~docv ~doc)

(** [--seed]: each command says what its seed drives. *)
let seed ?(default = 1) doc =
  Arg.(value & opt int default & info [ "seed" ] ~docv:"SEED" ~doc)

type t = { json : bool; output : string option; watch : bool }

(** [--json] and [-o]. *)
let outputs =
  let json =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:"Emit the JSONL rows on stdout instead of the text output.")
  in
  let output =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE"
          ~doc:"Also write the JSONL rows to $(docv).")
  in
  Term.(
    const (fun json output -> { json; output; watch = false }) $ json $ output)

(** [--json], [-o] and [--watch]. *)
let out =
  let watch =
    Arg.(
      value & flag
      & info [ "watch" ]
          ~doc:
            "Live telemetry: render a one-line progress/metrics snapshot on \
             stderr every few hundred progress ticks (executions, \
             iterations, cells), read from the metrics registry.  Never \
             touches stdout, so $(b,--json) output stays clean.")
  in
  Term.(const (fun o watch -> { o with watch }) $ outputs $ watch)

(** [--record] and [--dump-dir]: the dump directory when recording. *)
let dump_dir =
  let record =
    Arg.(
      value & flag
      & info [ "record" ]
          ~doc:
            "Record executions with the flight recorder and dump every \
             violating one as a replayable .trace.jsonl artifact (see \
             $(b,--dump-dir) and `pcl_tm explain').")
  in
  let dir =
    Arg.(
      value & opt string "traces"
      & info [ "dump-dir" ] ~docv:"DIR"
          ~doc:"Directory for dumped trace artifacts (created if missing).")
  in
  Term.(
    const (fun record dir -> if record then Some dir else None)
    $ record $ dir)

(* ------------------------------------------------------------------ *)
(* artifact writes *)

let write_file ?(append = false) path contents =
  let mode = if append then Open_append else Open_trunc in
  let oc = open_out_gen [ Open_wronly; Open_creat; mode ] 0o666 path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc contents)

type dump =
  verdicts:Flight.verdict list -> string -> (string * string) list -> string

(** [recording dir f] runs [f] under a fresh flight recorder when [dir]
    is given (creating it), handing [f] the function that dumps the
    recording: [dump ~verdicts name meta] attaches the verdicts and meta
    and writes DIR/NAME.trace.jsonl, returning its path. *)
let recording dir (f : dump option -> 'a) : 'a =
  match dir with
  | None -> f None
  | Some dir ->
      if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
      let fl = Flight.create () in
      Flight.with_recorder fl (fun () ->
          f
            (Some
               (fun ~verdicts name meta ->
                 List.iter (Flight.add_verdict fl) verdicts;
                 List.iter (fun (k, v) -> Flight.set_meta fl k v) meta;
                 let path = Filename.concat dir (name ^ ".trace.jsonl") in
                 write_file path (Flight.to_jsonl fl);
                 path)))

(* ------------------------------------------------------------------ *)
(* the run *)

(** The emit contract: the JSONL goes to [-o]; under [--json] the same
    bytes go to stdout. *)
let emit out jsonl =
  Option.iter (fun f -> write_file f jsonl) out.output;
  if out.json then print_string jsonl

(* the metric names a watch line samples *)
let watch_counters =
  [
    ("nodes", "explorer_nodes_total");
    ("pruned", "explorer_sleep_pruned_total");
    ("commits", "tm_commit_total");
    ("aborts", "tm_abort_total");
    ("rmrs", "cost_rmr_total");
  ]

(** Run [row] over [items] (while [stop ()] is false), with a watch per
    item labelled LABEL:[name item] when [name] is given and one for the
    whole sweep otherwise, ticking every [every] progress ticks.  Each
    row returns its JSONL lines and its text; [footer] adds the closing
    lines and text.  The lines are emitted, the texts printed when not
    [--json], and the sweep exits with [reason ()] if there is one. *)
let run out ~label ~every ?name ?header ?(stop = fun () -> false) items ~row
    ~footer ~reason =
  let watch label =
    if out.watch then Some (Watch.create ~every ~label watch_counters)
    else None
  in
  let print text = if not out.json then text Format.std_formatter in
  let whole = match name with None -> watch label | Some _ -> None in
  Option.iter print header;
  let lines = ref [] in
  List.iter
    (fun item ->
      if not (stop ()) then begin
        let w =
          match name with
          | Some name -> watch (label ^ ":" ^ name item)
          | None -> whole
        in
        let rows, text =
          row ~tick:(fun () -> Option.iter Watch.tick w) item
        in
        if Option.is_some name then Option.iter Watch.finish w;
        lines := List.rev_append rows !lines;
        print text
      end)
    items;
  Option.iter Watch.finish whole;
  let rows, text = footer () in
  emit out
    (String.concat ""
       (List.map (fun l -> l ^ "\n") (List.rev_append !lines rows)));
  print text;
  Option.iter Reason.exit_with (reason ())

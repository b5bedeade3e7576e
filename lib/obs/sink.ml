(* The telemetry sink: one metrics registry plus one span tracer plus run
   metadata, with in-memory aggregation (the table printer) and a JSONL
   export.

   A process-wide [default] sink exists so instrumentation deep in the
   stack (memory applies, TM operations, checker verdicts) records
   without threading a sink through every signature; the CLI resets it at
   the start of a run and exports it at the end.  Scoped sinks can still
   be created for tests. *)

type t = {
  metrics : Metrics.t;
  tracer : Span.t;
  mutable meta : (string * string) list;
}

let create ?cap ?clock ?steps () =
  {
    metrics = Metrics.create ();
    tracer = Span.create ?cap ?clock ?steps ();
    meta = [];
  }

let default = create ()

let metrics t = t.metrics
let tracer t = t.tracer

let set_meta t k v = t.meta <- (k, v) :: List.remove_assoc k t.meta
let meta t = List.rev t.meta

let reset t =
  Metrics.reset t.metrics;
  Span.reset t.tracer;
  t.meta <- []

(* ------------------------------------------------------------------ *)
(* Conveniences recording into the default sink — the instrumentation
   entry points used across the workbench. *)

let incr ?labels name = Metrics.incr_c default.metrics ?labels name
let add ?labels name n = Metrics.add_c default.metrics ?labels name n
let observe ?labels name x = Metrics.observe_h default.metrics ?labels name x
let span ?labels name f = Span.with_ default.tracer ?labels name f

let with_step_source steps f = Span.with_step_source default.tracer steps f

(* Handles into [default], resolved once per process: the cell is looked
   up (and so registered) when the handle is first forced, which a site
   does at its first count.  [reset] zeroes cells in place, so a forced
   handle stays valid for the life of the process. *)
let counter ?labels name = lazy (Metrics.counter default.metrics ?labels name)

let histogram ?labels name =
  lazy (Metrics.histogram default.metrics ?labels name)

(** Run [f], observing its wall duration (ns) into histogram [name]. *)
let time ?labels name f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  observe ?labels name ((Unix.gettimeofday () -. t0) *. 1e9);
  r

(* ------------------------------------------------------------------ *)
(* JSONL export.  Schema (one JSON object per line):
     {"type":"run","schema":1,"meta":{...}}
     {"type":"metric","kind":"counter","name":N,"labels":{...},"value":V}
     {"type":"metric","kind":"histogram",...,"count":N,"sum":S,"min":m,
      "max":M,"p50":…,"p95":…,"p99":…}
     {"type":"span","name":N,"labels":{...},"depth":D,"seq":Q,
      "start_step":A,"end_step":B,"steps":B-A,"wall_ns":W}
     {"type":"spans_dropped","count":N}        (only if the cap was hit) *)

let labels_json (labels : Metrics.labels) =
  Obs_json.Obj (List.map (fun (k, v) -> (k, Obs_json.String v)) labels)

let sample_json (s : Metrics.sample) : Obs_json.t =
  let common kind =
    [
      ("type", Obs_json.String "metric");
      ("kind", Obs_json.String kind);
      ("name", Obs_json.String s.name);
      ("labels", labels_json s.labels);
    ]
  in
  match s.value with
  | Metrics.VCounter n -> Obs_json.Obj (common "counter" @ [ ("value", Obs_json.Int n) ])
  | Metrics.VHistogram h ->
      Obs_json.Obj
        (common "histogram"
        @ [
            ("count", Obs_json.Int h.Metrics.count);
            ("sum", Obs_json.Float h.Metrics.sum);
            ("min", Obs_json.Float h.Metrics.min);
            ("max", Obs_json.Float h.Metrics.max);
            ("p50", Obs_json.Float h.Metrics.p50);
            ("p95", Obs_json.Float h.Metrics.p95);
            ("p99", Obs_json.Float h.Metrics.p99);
          ])

let span_json (sp : Span.span) : Obs_json.t =
  Obs_json.Obj
    [
      ("type", Obs_json.String "span");
      ("name", Obs_json.String sp.Span.name);
      ("labels", labels_json sp.Span.labels);
      ("depth", Obs_json.Int sp.Span.depth);
      ("seq", Obs_json.Int sp.Span.seq);
      ("start_step", Obs_json.Int sp.Span.start_step);
      ("end_step", Obs_json.Int sp.Span.end_step);
      ("steps", Obs_json.Int (Span.steps_of sp));
      ("wall_ns", Obs_json.Int sp.Span.wall_ns);
    ]

let jsonl_values t : Obs_json.t list =
  let run_line =
    Obs_json.Obj
      [
        ("type", Obs_json.String "run");
        Schema.field;
        ("meta", labels_json (meta t));
      ]
  in
  let dropped =
    if Span.dropped t.tracer = 0 then []
    else
      [
        Obs_json.Obj
          [
            ("type", Obs_json.String "spans_dropped");
            ("count", Obs_json.Int (Span.dropped t.tracer));
          ];
      ]
  in
  (run_line :: List.map sample_json (Metrics.snapshot t.metrics))
  @ List.map span_json (Span.spans t.tracer)
  @ dropped

let to_jsonl t =
  String.concat "\n" (List.map Obs_json.to_string (jsonl_values t)) ^ "\n"

(* ------------------------------------------------------------------ *)
(* Aggregated human-readable table *)

let pp_labels ppf = function
  | [] -> ()
  | labels ->
      Fmt.pf ppf "{%a}"
        Fmt.(
          list ~sep:(any ",") (fun ppf (k, v) -> Fmt.pf ppf "%s=%s" k v))
        labels

let pp_table ppf t =
  let samples = Metrics.snapshot t.metrics in
  if meta t <> [] then
    Fmt.pf ppf "# run %a@\n" pp_labels (meta t);
  List.iter
    (fun (s : Metrics.sample) ->
      match s.value with
      | Metrics.VCounter n ->
          Fmt.pf ppf "%-34s %a %d@\n" s.name pp_labels s.labels n
      | Metrics.VHistogram h ->
          Fmt.pf ppf
            "%-34s %a count=%d sum=%.0f min=%.0f max=%.0f mean=%.1f \
             p50=%.0f p95=%.0f p99=%.0f@\n"
            s.name pp_labels s.labels h.Metrics.count h.Metrics.sum
            h.Metrics.min h.Metrics.max
            (if h.Metrics.count = 0 then 0.
             else h.Metrics.sum /. float_of_int h.Metrics.count)
            h.Metrics.p50 h.Metrics.p95 h.Metrics.p99)
    samples;
  let n_spans = Span.count t.tracer in
  if n_spans > 0 then begin
    Fmt.pf ppf "# %d spans recorded" n_spans;
    if Span.dropped t.tracer > 0 then
      Fmt.pf ppf " (%d dropped past the buffer cap)" (Span.dropped t.tracer);
    Fmt.pf ppf "@\n"
  end

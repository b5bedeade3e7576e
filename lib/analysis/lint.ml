(* The lint framework: finding/pass types, configuration, inputs and the
   plug-in registry.  The built-in passes live in the pass modules and are
   assembled (with name lookup) in Lints; this module holds only what the
   passes themselves need, so a pass can be written against Lint alone. *)

open Tm_base
open Tm_trace
open Tm_dap
module J = Tm_obs.Obs_json

type severity = Info | Warning | Error

let severity_to_string = function
  | Info -> "info"
  | Warning -> "warning"
  | Error -> "error"

type finding = {
  pass : string;
  severity : severity;
  step : int option;
  txns : Tid.t list;
  oids : Oid.t list;
  witness_steps : int list;
  message : string;
}

let pp_finding ?(name_of = fun oid -> Printf.sprintf "oid%d" (Oid.to_int oid))
    ppf (f : finding) =
  Format.fprintf ppf "[%s] %s:%s %s" (severity_to_string f.severity) f.pass
    (match f.step with
    | Some s -> Printf.sprintf " step %d:" s
    | None -> "")
    f.message;
  if f.txns <> [] then
    Format.fprintf ppf "@\n  txns: %s"
      (String.concat ", " (List.map Tid.name f.txns));
  if f.oids <> [] then
    Format.fprintf ppf "@\n  objects: %s"
      (String.concat ", " (List.map name_of f.oids));
  if f.witness_steps <> [] then
    Format.fprintf ppf "@\n  witness steps: %s"
      (String.concat "," (List.map string_of_int f.witness_steps))

let finding_json (f : finding) : J.t =
  J.Obj
    [
      Tm_obs.Schema.field;
      ("type", J.String "finding");
      ("pass", J.String f.pass);
      ("severity", J.String (severity_to_string f.severity));
      ( "step",
        match f.step with Some s -> J.Int s | None -> J.Null );
      ("txns", J.List (List.map (fun t -> J.Int (Tid.to_int t)) f.txns));
      ("oids", J.List (List.map (fun o -> J.Int (Oid.to_int o)) f.oids));
      ("witness_steps", J.List (List.map (fun s -> J.Int s) f.witness_steps));
      ("message", J.String f.message);
    ]

let to_flight_verdict (f : finding) : Flight.verdict =
  {
    Flight.source = Printf.sprintf "lint:%s" f.pass;
    verdict = severity_to_string f.severity;
    axiom = f.message;
    witness_txns = f.txns;
    witness_steps = f.witness_steps;
  }

type config = {
  horizon : int;
  dap_connectivity : [ `Direct | `Path ];
  max_findings : int;
}

let default = { horizon = 128; dap_connectivity = `Direct; max_findings = 16 }

let cap (cfg : config) findings =
  if List.length findings <= cfg.max_findings then findings
  else List.filteri (fun i _ -> i < cfg.max_findings) findings

type input = {
  log : Access_log.window;
  history : History.t;
  name_of : Oid.t -> string;
  data_sets : Conflict.data_sets option;
  tm : string option;
  meta : (string * string) list;
}

let input_of_flight fl : input =
  {
    log = Flight.steps fl;
    history = Flight.history fl;
    name_of = Flight.name_of fl;
    data_sets = None;
    tm = Flight.meta_value fl "tm";
    meta = Flight.meta fl;
  }

(* Dynamic footprints: the items each transaction invoked an operation
   on, answered or not.  A TM that aborts a transaction on its very first
   read (progressive TMs do) would otherwise leave it with an empty
   footprint and fabricate disjoint-access findings against it.  Still an
   under-approximation of the static data set for partially-run
   transactions, which can only mask (never fabricate) a disjointness
   violation. *)
let effective_data_sets (i : input) : Conflict.data_sets =
  match i.data_sets with
  | Some ds -> ds
  | None -> Conflict.of_history i.history

type pass = {
  name : string;
  describe : string;
  paper : string;
  run : config -> input -> finding list;
}

(* plug-in registry: later registrations of the same name win, so a test
   or downstream tool can shadow a built-in pass *)
let plugins : pass list ref = ref []

let register p =
  plugins := List.filter (fun q -> q.name <> p.name) !plugins @ [ p ]

let registered () = !plugins

(** The per-TM × workload cost matrix: the proof's figure schedules
    (fig1, fig1b, fig2, beta, beta-prime) plus the stock explore sweep
    under sleep-set DPOR, with an expected-cost table (the "PCL tax")
    checked against the observed rows.  Deterministic: the JSONL is
    byte-identical across runs. *)

open Tm_impl

type row = {
  tm : string;
  workload : string;
  status : string;  (** "ok", or "blocked:<phase>" / "no-flip" / "crash" *)
  executions : int;
  cost : Cost.t;
}

val workload_names : string list

val figure_rows : Tm_intf.impl -> row list
(** Figure workloads only; status rows when the Section-4 construction
    does not exist for the TM. *)

val explore_row :
  ?max_nodes:int ->
  ?max_executions:int ->
  ?on_execution:(unit -> unit) ->
  Tm_intf.impl ->
  row
(** Costs summed over every complete execution of the stock sweep;
    [on_execution] is a progress tick (for watch mode). *)

val rows_for :
  ?max_nodes:int ->
  ?max_executions:int ->
  ?on_execution:(unit -> unit) ->
  Tm_intf.impl ->
  row list
(** [figure_rows] followed by [explore_row], each registered into the
    default sink under [("tm", _); ("workload", _)] labels. *)

val row_fields : row -> (string * int) list
val field_value : row -> string -> int
val row_json : row -> Tm_obs.Obs_json.t

(** {1 The expected-cost table} *)

type sign = NonZero | Zero

type expect = { tm : string; workload : string; field : string; sign : sign }

val table : expect list
(** Observed signs per TM; the test suite requires rows for every
    registered TM. *)

val check : row list -> (string * string * string list) list
(** Expected-cost violations plus the universal cost laws
    ([rmrs <= steps], [rmw <= steps], wasted-work partition, nonempty
    "ok" rows pay at least one RMR).  Empty means the matrix is within
    expectations. *)

val check_json :
  (string * string * string list) list -> Tm_obs.Obs_json.t

(** {1 Artifacts} *)

val jsonl_values : row list -> Tm_obs.Obs_json.t list
val to_jsonl : row list -> string
val pp_table : Format.formatter -> row list -> unit
val pp_expectations : Format.formatter -> unit -> unit

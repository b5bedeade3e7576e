(** The assembled pass set: built-ins plus plug-ins, with the same
    name/prefix lookup discipline as [Tm_impl.Registry], and the per-TM
    expected-findings table that separates "the lint confirming what the
    theorem says about this TM" from "a genuine surprise". *)

val builtin : Lint.pass list
(** The trace passes ({!Passes.trace_passes}) plus
    {!Figure_lint.pass}. *)

val all : unit -> Lint.pass list
(** Built-ins with plug-in shadowing applied ({!Lint.register}ed passes
    replace same-named built-ins and append otherwise). *)

type lookup =
  | Found of Lint.pass
  | Ambiguous of string list  (** pass names the prefix matches *)
  | Unknown

val lookup : string -> lookup
(** Exact name match, or a unique-prefix match ([tor] resolves to
    [torn-snapshot]); an ambiguous prefix reports its candidates. *)

val find : string -> Lint.pass option
val find_exn : string -> Lint.pass
(** @raise Invalid_argument on unknown or ambiguous names. *)

val expected_for : string option -> string list
(** Pass names whose findings are {e expected} for the named TM — the
    lint confirming a property the theorem already denies it (e.g.
    [strict-dap] on the global-clock TMs, [of-stall] on the lock-based
    one).  [None] (TM unknown) expects nothing.  The test suite requires
    [strict-dap] here exactly for the TMs whose contract is not strictly
    DAP. *)

val is_expected : tm:string option -> Lint.finding -> bool

type run_result = {
  tm : string option;
  findings : Lint.finding list;  (** in pass order *)
  unexpected : Lint.finding list;  (** subset not in the expected table *)
  passes_run : string list;
}

val run_passes :
  ?config:Lint.config -> Lint.pass list -> Lint.input -> run_result
(** Run the given passes over one input and classify the findings
    against the input's TM. *)

(* Umbrella module: the full public API of the PCL workbench.

   Layers, bottom-up:
   - {!Value} .. {!Memory}: the shared-memory substrate (base objects,
     atomic primitives, the step log).
   - {!Event} .. {!Legality}: histories and the paper's Section-3 notions.
   - {!Proc} .. {!Explorer}: the deterministic scheduler and schedules.
   - {!Spec} .. {!Hierarchy}: the consistency-condition decision
     procedures (Definitions 3.1-3.3 and the surrounding lattice).
   - {!Conflict} .. {!Obstruction_freedom}: disjoint-access-parallelism
     and liveness detectors.
   - {!Tm_intf} .. {!Registry}: the TM implementations.
   - {!Pcl_*}: the mechanized Section-4 proof construction.
   - {!Vclock} .. {!Lints}: pclsan, the happens-before engine and lint
     passes over recorded executions. *)

(* observability: the telemetry layer everything below records into *)
module Metrics = Tm_obs.Metrics
module Span = Tm_obs.Span
module Sink = Tm_obs.Sink
module Obs_json = Tm_obs.Obs_json
module Schema = Tm_obs.Schema
module Reason = Tm_obs.Reason
module Watch = Tm_obs.Watch
module Prof = Tm_obs.Prof
module Gcstat = Tm_obs.Gcstat

(* substrate *)
module Intvec = Tm_base.Intvec
module Objvec = Tm_base.Objvec
module Value = Tm_base.Value
module Oid = Tm_base.Oid
module Item = Tm_base.Item
module Tid = Tm_base.Tid
module Primitive = Tm_base.Primitive
module Base_object = Tm_base.Base_object
module Access_log = Tm_base.Access_log
module Memory = Tm_base.Memory

(* traces *)
module Event = Tm_trace.Event
module History = Tm_trace.History
module Recorder = Tm_trace.Recorder
module Legality = Tm_trace.Legality
module Build = Tm_trace.Build
module Wire = Tm_trace.Wire
module Flight = Tm_trace.Flight
module Timeline = Tm_trace.Timeline

(* runtime *)
module Proc = Tm_runtime.Proc
module Scheduler = Tm_runtime.Scheduler
module Schedule = Tm_runtime.Schedule
module Sim = Tm_runtime.Sim
module Explorer = Tm_runtime.Explorer

(* consistency *)
module Spec = Tm_consistency.Spec
module Blocks = Tm_consistency.Blocks
module Placement = Tm_consistency.Placement
module Views = Tm_consistency.Views
module Checker_util = Tm_consistency.Checker_util
module Serializability = Tm_consistency.Serializability
module Conflict_serializability = Tm_consistency.Conflict_serializability
module Strict_serializability = Tm_consistency.Strict_serializability
module Snapshot_isolation = Tm_consistency.Snapshot_isolation
module Snapshot_isolation_ei = Tm_consistency.Snapshot_isolation_ei
module Processor_consistency = Tm_consistency.Processor_consistency
module Pram = Tm_consistency.Pram
module Causal = Tm_consistency.Causal
module Weak_adaptive = Tm_consistency.Weak_adaptive
module Opacity = Tm_consistency.Opacity
module Checkers = Tm_consistency.Checkers
module Witness = Tm_consistency.Witness
module Provenance = Tm_consistency.Provenance
module Anomalies = Tm_consistency.Anomalies
module Hierarchy = Tm_consistency.Hierarchy

(* dap *)
module Conflict = Tm_dap.Conflict
module Contention = Tm_dap.Contention
module Strict_dap = Tm_dap.Strict_dap
module Graph_dap = Tm_dap.Graph_dap
module Obstruction_freedom = Tm_dap.Obstruction_freedom

(* tm implementations *)
module Tm_intf = Tm_impl.Tm_intf
module Txn_api = Tm_impl.Txn_api
module Atomically = Tm_impl.Atomically
module Static_txn = Tm_impl.Static_txn
module Tl_tm = Tm_impl.Tl_tm
module Pram_tm = Tm_impl.Pram_tm
module Dstm_tm = Tm_impl.Dstm_tm
module Si_tm = Tm_impl.Si_tm
module Candidate_tm = Tm_impl.Candidate_tm
module Tl2_tm = Tm_impl.Tl2_tm
module Norec_tm = Tm_impl.Norec_tm
module Llsc_tm = Tm_impl.Llsc_tm
module Lp_tm = Tm_impl.Lp_tm
module Pwf_tm = Tm_impl.Pwf_tm
module Registry = Tm_impl.Registry

(* universal constructions *)
module Seq_object = Tm_universal.Seq_object
module Universal = Tm_universal.Universal
module Linearizability = Tm_universal.Linearizability

(* probes *)
module Solo_probe = Tm_probe.Solo_probe
module Liveness_class = Tm_probe.Liveness_class
module Workload = Tm_probe.Workload
module Progress = Tm_probe.Progress
module Explore_sweep = Tm_probe.Explore_sweep
module Soak = Tm_probe.Soak

(* pclsan: the happens-before engine and lint passes *)
module Vclock = Tm_analysis.Vclock
module Hb = Tm_analysis.Hb
module Lint = Tm_analysis.Lint
module Lint_passes = Tm_analysis.Passes
module Progress_lint = Tm_analysis.Progress_lint
module Figure_lint = Tm_analysis.Figure_lint
module Lints = Tm_analysis.Lints

(* the cost observatory: synchronization-cost metering *)
module Cost = Tm_cost.Cost
module Cost_run = Tm_cost.Cost_run

(* chaos: fault injection, contention management, crash-closure *)
module Chaos_prng = Tm_chaos.Prng
module Cm = Tm_chaos.Cm
module Fault = Tm_chaos.Fault
module Crash_closure = Tm_chaos.Crash_closure
module Chaos_run = Tm_chaos.Chaos_run

(* the scenario catalogue: versioned conformance scenarios + runner *)
module Scenario = Tm_scenario.Scenario
module Scenario_gen = Tm_scenario.Scenario_gen
module Scenario_run = Tm_scenario.Scenario_run

(* the mechanized proof *)
module Pcl_txns = Pcl.Txns
module Pcl_harness = Pcl.Harness
module Pcl_critical_step = Pcl.Critical_step
module Pcl_constructions = Pcl.Constructions
module Pcl_claims = Pcl.Claims
module Pcl_verdict = Pcl.Verdict
module Pcl_figures = Pcl.Figures

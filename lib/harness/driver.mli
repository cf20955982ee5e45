(** One-call experiment driver: build a runtime, pick a system, inject a
    workload, quiesce, summarize. *)

(** Parameter source for the [Dynamic] mode's STL selector (inert in every
    other mode); maps onto {!Core.Dynamic_cc.adaptivity}. *)
type adaptive =
  | Cumulative  (** whole-run online averages (the historical default) *)
  | Measured of float
      (** sliding-window measured λ over the trailing window (time units) —
          the CLI's [--adaptive measured] *)
  | Configured
      (** design-time analytic parameters derived from the run's
          (first-phase) workload spec via {!Ccdb_stl.Analytic.of_spec} —
          never updated, so blind to phase changes *)

type setup = {
  sites : int;
  items : int;
  replication : int;
  net : Ccdb_sim.Net.config;
      (** latency between distinct sites; the network has [sites] sites *)
  seed : int;
  restart_delay : float;
      (** resubmission delay after a T/O rejection or a deadlock abort,
          applied to every system built by {!run} *)
  detection : Ccdb_protocols.Deadlock.detection;
      (** deadlock-detection mechanism for the 2PL-capable systems *)
  thomas_write_rule : bool;
      (** enable the Thomas Write Rule in the pure T/O baseline *)
  prevention : Ccdb_protocols.Two_pl_system.prevention;
      (** deadlock prevention policy for the pure 2PL baseline *)
  adaptive : adaptive;
      (** STL parameter source for the [Dynamic] mode *)
  reselect : bool;
      (** re-run the selector when a [Dynamic] transaction restarts
          ({!Core.Dynamic_cc.config.reselect_on_restart}, the paper's
          future-work item 4, measured by X6); inert in every other mode *)
  criterion : Ccdb_stl.Selector.criterion;
      (** what the [Dynamic] mode's selector minimises
          ({!Core.Dynamic_cc.config.criterion}): the paper's [Min_stl], or
          the transaction's own response time (X7); inert in every other
          mode *)
  commit : Ccdb_protocols.Runtime.commit_protocol;
      (** atomic-commitment engine for durable runs: Paxos Commit, whose
          [f = 0] is two-phase commit (the default); inert without a
          fail-stop fault plan.  Role-targeted crash windows in the fault
          plan ([crash=coordinator@T+D], [crash=acceptor:k@T+D]) are
          resolved against the workload — the coordinator is the home site
          of the earliest arrival, acceptor [k] is site [k] (at [f = 0]
          the one acceptor is each transaction's home site, so its crash
          is [crash=coordinator]) *)
}

val default_setup : setup
(** 4 sites, 32 items, replication 2, default network, seed 42,
    restart_delay 50., centralized detection, Thomas Write Rule off,
    cumulative adaptivity, reselection off, min-STL selection, two-phase
    commit ([Paxos { f = 0 }]). *)

(** Which concurrency-control system executes the workload. *)
type mode =
  | Pure of Ccdb_model.Protocol.t
      (** the standalone baseline implementation of one protocol; the
          workload's protocol mix is ignored *)
  | Unified
      (** the unified system; each transaction runs under the protocol the
          workload generator assigned it *)
  | Unified_forced of Ccdb_model.Protocol.t
      (** the unified system with every transaction forced to one protocol
          (for preservation / E10 comparisons) *)
  | Unified_full_lock
      (** the unified system with semi-locks disabled (the E8 ablation) *)
  | Dynamic
      (** the full dynamic system: per-transaction min-STL selection *)
  | Mvto
      (** the multiversion T/O baseline.  MVTO writes no single-version
          implementation log, so the single-version store checks do not
          apply: with [verify_store] the summary's [serializable] and
          [replica_consistent] flags both report
          {!Ccdb_protocols.Mvto_system.verify}, the multiversion invariant,
          instead *)
  | Conservative
      (** the conservative T/O baseline (tick-driven, restart-free) *)

val mode_name : mode -> string

(** How [run ~audit:true] computes its report. *)
type audit_path =
  | Batch
      (** record the full trace, replay it through the batch analyzer
          after the run (the executable specification) *)
  | Streaming
      (** feed {!Ccdb_analysis.Stream} inline during the run — no trace
          retained, flat per-event cost; the default *)
  | Differential
      (** both; any disagreement is reported as an [audit.divergence]
          error finding (used by the lint gates and the mode oracle) *)

type result = {
  summary : Metrics.summary;
  runtime : Ccdb_protocols.Runtime.t;
  decisions : (Ccdb_model.Protocol.t * int) list;
      (** protocol routing (meaningful for [Dynamic] and [Unified]) *)
  audit : Ccdb_analysis.Report.t option;
      (** invariant-analysis report ([Some] iff [run ~audit:true]) *)
}

val run :
  ?setup:setup ->
  ?n_txns:int ->
  ?observer:(Ccdb_protocols.Runtime.t -> unit) ->
  ?audit:bool ->
  ?audit_path:audit_path ->
  ?faults:Ccdb_sim.Fault_plan.t ->
  ?verify_store:bool ->
  mode ->
  Ccdb_workload.Generator.spec ->
  result
(** Runs [n_txns] (default 200) generated transactions, each submitted at
    its Poisson arrival time, to quiescence and summarizes.  Each arrival
    is drawn when its predecessor fires ({!Ccdb_workload.Generator.arrivals},
    {!Ccdb_sim.Engine.feed}), so the run holds only the arrivals in
    flight.  [observer] is
    invoked on the fresh runtime before any event fires (to subscribe
    estimators or probes).  With [~audit:true] the full event stream is
    traced and replayed through {!Ccdb_analysis.Analyzer} after the run.
    [faults] installs a fault plan (message loss, duplication, extra delay,
    site crashes — see {!Ccdb_sim.Fault_plan}) over the reliable transport
    of {!Ccdb_sim.Net}; combine with [~audit:true] to certify that the
    run stayed serializable under the injected faults.  [verify_store]
    (default [true]) controls the post-hoc store checks of
    {!Metrics.summarize}, or MVTO's own invariant in the [Mvto] mode —
    switch it off for million-transaction runs where the streaming audit
    replaces them (EXPERIMENTS.md E13).
    @raise Ccdb_protocols.Runtime.Event_budget_exhausted if the run
    livelocks. *)

val run_phases :
  ?setup:setup ->
  ?observer:(Ccdb_protocols.Runtime.t -> unit) ->
  ?audit:bool ->
  ?audit_path:audit_path ->
  ?faults:Ccdb_sim.Fault_plan.t ->
  ?verify_store:bool ->
  mode ->
  (Ccdb_workload.Generator.spec * int) list ->
  result
(** Like {!run} but over a non-stationary, phased workload
    ({!Ccdb_workload.Generator.phased}): each [(spec, n)] phase draws [n]
    transactions whose arrivals continue from the previous phase's last
    arrival.  Under [Configured] adaptivity the analytic parameters come
    from the {e first} phase's spec — by construction blind to the phase
    change, which is exactly what experiment E14 measures against the
    measured-λ source.
    @raise Invalid_argument on an empty phase list. *)

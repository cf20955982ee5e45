(** The reproduction suite: one experiment per evaluation claim of the
    paper (the ICDE 1988 text has no numbered tables/figures; DESIGN.md
    section 5 maps each claim to an experiment id).

    Every function runs the full simulation(s) and renders the table the
    paper's claim predicts.  [quick] shrinks transaction counts for use
    inside the test suite; the benchmark binary runs full size. *)

type outcome = {
  id : string;                 (** "E1" ... "E14", "X1" ... *)
  title : string;
  claim : string;              (** the paper's claim, quoted/paraphrased *)
  table : Ccdb_util.Table.t;
  notes : string list;         (** measured verdict + caveats *)
}

val e1_system_time_vs_lambda : ?quick:bool -> unit -> outcome
(** S vs arrival rate for the three pure protocols (section 5). *)

val e2_system_time_vs_size : ?quick:bool -> unit -> outcome
(** S vs transaction size st (section 5 / [10]). *)

val e3_overheads_vs_lambda : ?quick:bool -> unit -> outcome
(** Restarts, deadlocks, back-offs and messages per transaction vs load. *)

val e4_single_item_writes : ?quick:bool -> unit -> outcome
(** st = 1, write-only: 2PL cannot deadlock and beats T/O (section 1). *)

val e5_heavy_small_txns : ?quick:bool -> unit -> outcome
(** Heavy load, small st > 1: T/O beats 2PL (section 1). *)

val e6_dynamic_vs_static : ?quick:bool -> unit -> outcome
(** Min-STL dynamic selection vs every static choice across regimes. *)

val e7_stl_validation : ?quick:bool -> unit -> outcome
(** STL-predicted protocol ranking vs the measured ranking per regime. *)

val e8_semilock_ablation : ?quick:bool -> unit -> outcome
(** Semi-locks vs full locking for a 2PL+T/O mix (section 4.2). *)

val e9_correctness_counters : ?quick:bool -> unit -> outcome
(** Corollary 1 and Theorem 3 at scale: PA never restarts, 2PL-free mixes
    never deadlock, everything serializable. *)

val e10_preservation : ?quick:bool -> unit -> outcome
(** unified(all-X) vs pure X on identical workloads (section 4.2). *)

val e11_fault_sweep : ?quick:bool -> unit -> outcome
(** Message-loss sweep under a fixed two-crash schedule: throughput, S and
    crash-triggered aborts vs loss rate (DESIGN.md section 9). *)

val e12_crash_recovery : ?quick:bool -> unit -> outcome
(** Fail-stop crash-frequency sweep: WAL append volume, wipe drops, replay
    counts and replay time vs number of crash windows (DESIGN.md
    section 11). *)

val e13_audit_cost : ?quick:bool -> unit -> outcome
(** Audit cost vs trace length: the batch Theorem-2 check's log-pair scans
    grow with the trace while the streaming analyzer's incremental-graph
    work stays flat per event (deterministic counters, never wall-clock;
    DESIGN.md section 12). *)

val e14_phase_change : ?quick:bool -> unit -> outcome
(** Phase-change workload (read-heavy calm, then a hot-key zipfian write
    storm): measured-lambda adaptivity ({!Driver.adaptive} [Measured]) vs
    cumulative and design-time parameter sources and every static protocol,
    with the mid-run protocol switch read off the insights windows
    (DESIGN.md section 13, OBSERVABILITY.md). *)

val e16_nonblocking_commit : ?quick:bool -> unit -> outcome
(** Presumed-abort 2PC vs Paxos Commit at acceptor-set sizes f = 0, 1, 2
    under a message-loss plan and a role-targeted coordinator fail-stop:
    committed counts, commit latency, rounds forced to abort and acceptor
    takeovers, every row audited by the consensus.* checks (DESIGN.md
    section 15). *)

(** {2 Extension experiments}

    X-experiments go beyond the paper's explicit claims but stay inside its
    stated problem space: parameter (6) "deadlock detection time and cost",
    and future-work items (2) "integration of other concurrency control
    algorithms" and the analytical estimation option of section 5.2. *)

val x1_detection_ablation : ?quick:bool -> unit -> outcome
(** Centralized WFG scans (two intervals) vs Chandy-Misra-Haas edge-chasing
    (two probe delays) on a deadlock-prone 2PL workload. *)

val x2_thomas_write_rule : ?quick:bool -> unit -> outcome
(** Basic T/O vs T/O + Thomas Write Rule on a write-heavy workload. *)

val x3_analytic_selection : ?quick:bool -> unit -> outcome
(** Design-time protocol choice from the analytical model (no observation)
    vs the per-regime best and worst static choices. *)

val x4_multiversion : ?quick:bool -> unit -> outcome
(** Multiversion T/O vs Basic T/O on a read-heavy workload. *)

val x5_conservative_to : ?quick:bool -> unit -> outcome
(** Conservative T/O (restart-free, tick-driven) vs Basic T/O. *)

val x6_reselection : ?quick:bool -> unit -> outcome
(** Future-work item (4): restarted transactions re-run the selector. *)

val x7_selection_criteria : ?quick:bool -> unit -> outcome
(** Section 5.1's argument, tested: min-STL vs min-own-response-time. *)

(** {2 Staged execution}

    Each experiment decomposes into independent measurement {e points} (one
    per sweep value; each owns its private engine, RNG and catalog) plus a
    pure assembly function mapping the point values, in input order, to the
    outcome.  Assembly never depends on execution order, so a parallel
    runner that preserves result order (see {!Parallel}) produces
    byte-identical tables to the serial path. *)

type staged
(** One experiment, decomposed but not yet run. *)

val staged : ?quick:bool -> unit -> staged list
(** Every experiment in order (E1-E14, E16, then X1-X7), decomposed. *)

val points_count : staged -> int
(** Number of independent points the experiment fans out. *)

val prepare : staged -> (unit -> unit) list * (unit -> outcome)
(** [(tasks, finish)]: the point thunks (each fills a private result slot)
    and the assembly closure.  Run every task — in any order, on any
    domain — then call [finish].  [finish] raises [Invalid_argument] if a
    task never ran. *)

val run_one : staged -> outcome
(** Runs the points serially, in order, and assembles. *)

val all : ?quick:bool -> ?runner:((unit -> unit) list -> unit) -> unit -> outcome list
(** Every experiment in order (E1-E14, E16, then X1-X7).  [runner] receives the
    flattened point tasks of all experiments and must run each exactly once
    (default: serially, in order); outcomes are assembled in experiment
    order afterwards regardless of how the runner scheduled the tasks. *)

val render : outcome -> string
(** Header + claim + table + notes, ready to print. *)

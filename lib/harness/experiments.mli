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

val e4_single_item_writes : ?quick:bool -> unit -> outcome
(** st = 1, write-only: 2PL cannot deadlock and beats T/O (section 1). *)

val e9_correctness_counters : ?quick:bool -> unit -> outcome
(** Corollary 1 and Theorem 3 at scale: PA never restarts, 2PL-free mixes
    never deadlock, everything serializable. *)

val e10_preservation : ?quick:bool -> unit -> outcome
(** unified(all-X) vs pure X on identical workloads (section 4.2). *)

val e12_crash_recovery : ?quick:bool -> unit -> outcome
(** Fail-stop crash-frequency sweep: WAL append volume, wipe drops, replay
    counts and replay time vs number of crash windows (DESIGN.md
    section 11). *)

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

val x2_thomas_write_rule : ?quick:bool -> unit -> outcome
(** Basic T/O vs T/O + Thomas Write Rule on a write-heavy workload. *)

val x4_multiversion : ?quick:bool -> unit -> outcome
(** Multiversion T/O vs Basic T/O on a read-heavy workload. *)

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

val id : staged -> string
(** The id of the experiment's outcome, e.g. ["E4"], known before it
    runs. *)

val points_count : staged -> int
(** Number of independent points the experiment fans out. *)

val prepare : staged -> (unit -> unit) list * (unit -> outcome)
(** [(tasks, finish)]: the point thunks (each fills a private result slot)
    and the assembly closure.  Run every task — in any order, on any
    domain — then call [finish].  [finish] raises [Invalid_argument] if a
    task never ran. *)

val run_one : staged -> outcome
(** Runs the points serially, in order, and assembles. *)

val all : ?runner:((unit -> unit) list -> unit) -> staged list -> outcome list
(** Runs the given experiments, e.g. all of {!staged}.  [runner] receives
    the flattened point tasks of all of them and must run each exactly once
    (default: serially, in order); outcomes are assembled in the given
    order afterwards regardless of how the runner scheduled the tasks. *)

val render : outcome -> string
(** Header + claim + table + notes, ready to print. *)

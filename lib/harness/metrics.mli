(** Run-level metrics computed from a finished runtime. *)

type recovery = {
  wal_appends : int;       (** records forced to stable storage, all sites *)
  entries_dropped : int;   (** volatile queue entries erased by wipes *)
  replays : int;           (** recovery replays performed *)
  interrupted : int;       (** crashes landing inside a replay window *)
  records_replayed : int;  (** stable-log records scanned by replays *)
  replay_time : float;     (** simulated time charged to replays *)
}
(** Durability counters of a fail-stop run (fault plan with [wipe=true]). *)

type summary = {
  committed : int;
  duration : float;          (** time of the last commit *)
  mean_system_time : float;  (** S, the paper's headline metric *)
  p95_system_time : float;  (** within 1/16 above the exact value *)
  throughput : float;        (** commits per time unit *)
  restarts_per_txn : float;
  rejections : int;
  deadlock_aborts : int;
  prevention_aborts : int;
  backoffs_per_txn : float;
  messages_per_txn : float;
  messages_by_kind : (string * int) list;
  serializable : bool;
  replica_consistent : bool;
  site_aborts : int;         (** crash-triggered [Site_failure] restarts *)
  transport : Ccdb_sim.Net.fault_stats option;
      (** transport-level counters of a fault-injected run ([None] without
          a fault plan) *)
  recovery : recovery option;
      (** WAL/recovery counters of a durable run ([None] unless the fault
          plan says [wipe=true]) *)
}

val summarize : ?verify:bool -> Ccdb_protocols.Runtime.t -> summary
(** Computes everything from the runtime's counters and system-time
    summary, network counters and store logs.  A runtime with no commits
    reports NaN for the time-based metrics.  [p95_system_time] is the
    upper edge of the {!Ccdb_util.Histogram} bucket holding the
    nearest-rank sample, at most 1/16 above it.  [~verify:false] (default
    [true]) skips the post-hoc store checks — [serializable] and
    [replica_consistent] are then vacuously [true]; the whole-history
    conflict check is quadratic-ish in run length, so million-transaction
    runs rely on the streaming audit instead (EXPERIMENTS.md E13). *)

val per_protocol_system_time :
  Ccdb_protocols.Runtime.t -> (Ccdb_model.Protocol.t * Ccdb_util.Stats.t) list
(** Mean system time of each protocol that committed a transaction, in
    protocol order: the runtime's own accumulators
    ({!Ccdb_protocols.Runtime.protocol_system_time}). *)

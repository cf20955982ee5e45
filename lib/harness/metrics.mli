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
  p95_system_time : float;
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
(** Computes everything from the runtime's completions, counters, network
    counters and store logs.  A runtime with no commits reports NaN for the
    time-based metrics.  [~verify:false] (default [true]) skips the
    post-hoc store checks — [serializable] and [replica_consistent] are
    then vacuously [true]; the whole-history conflict check is quadratic-ish
    in run length, so million-transaction runs rely on the streaming audit
    instead (EXPERIMENTS.md E13). *)

val system_time_stats : Ccdb_protocols.Runtime.t -> Ccdb_util.Stats.t
(** Per-transaction system times (executed - submitted), for custom
    aggregation. *)

val per_protocol_system_time :
  Ccdb_protocols.Runtime.t -> (Ccdb_model.Protocol.t * Ccdb_util.Stats.t) list
(** System-time distribution split by the protocol transactions ran under. *)

type window = {
  w_start : float;
  w_end : float;
  w_committed : int;
  w_mean_system_time : float;  (** NaN for an empty window *)
  w_throughput : float;
}

val timeline : bucket:float -> Ccdb_protocols.Runtime.t -> window list
(** Commits grouped into [bucket]-wide windows by submission time, oldest
    first — how S evolves over a run (used by the dynamic-tuning example).
    @raise Invalid_argument if [bucket <= 0.]. *)

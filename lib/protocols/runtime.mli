(** Shared execution context for every concurrency-control system.

    A runtime bundles the simulation engine, the network, storage, the
    timestamp source and an event stream.  All six systems (pure 2PL, pure
    T/O, pure PA, MVTO, conservative T/O, and the unified engine in [core])
    run against this same substrate, so their timing and message counts are
    directly comparable. *)

(** Which atomic-commitment protocol the durable paths run — selected at
    {!create} and read back by [Commit].  Inert unless the runtime is
    {!durable}. *)
type commit_protocol =
  | Paxos of { f : int }
      (** Paxos Commit (Gray–Lamport).  [f = 0] is two-phase commit: the one
          acceptor is each transaction's home site, the coordinator, and a
          round it holds blocks until that site recovers.  [f >= 1] runs
          over the [2f+1] acceptor sites [0 .. 2f]: tolerates [f]
          simultaneous fail-stop acceptors with no blocking window *)

type restart_reason =
  | To_rejected of Ccdb_model.Op.kind
      (** a Basic T/O request arrived out of timestamp order *)
  | Deadlock_victim
      (** chosen to break a 2PL wait-for cycle *)
  | Prevention_kill
      (** killed by a deadlock-prevention policy (wait-die's self-abort or
          wound-wait's wound) *)
  | Site_failure
      (** aborted because a site it depends on crashed (fault injection):
          only the systems' {!on_site_crash} handlers issue it, since the
          transport delivers every message and a silent transaction is
          merely waiting.  Only issued in pre-commit phases, so no write is
          ever lost. *)

(** Verdict a queue manager returned for a freshly arrived request. *)
type request_outcome =
  | Req_admitted
  | Req_rejected       (** T/O: timestamp at or below [r_ts]/[w_ts] *)
  | Req_backoff of int (** PA: admitted blocked, with the proposed TS' *)
  | Req_ignored        (** Thomas Write Rule: dead write dropped *)

(** Everything observable about a run, emitted as it happens. *)
type event =
  | Lock_requested of {
      txn : int;
      protocol : Ccdb_model.Protocol.t;
      op : Ccdb_model.Op.kind;
      item : int;
      site : int;
      origin : int;    (** issuer's home site (precedence tie-break) *)
      ts : int option; (** [None] for 2PL requests *)
      outcome : request_outcome;
      at : float;
    }
  | Lock_granted of {
      txn : int;
      protocol : Ccdb_model.Protocol.t;
      op : Ccdb_model.Op.kind;
      item : int;
      site : int;
      mode : Ccdb_model.Lock.mode option;
          (** [None] for timestamp-scheduled systems that hold no locks
              (basic T/O performs, MVTO, conservative T/O) *)
      schedule : Ccdb_model.Lock.schedule;
      ts : int option;
          (** the precedence timestamp the queue assigned this entry; for 2PL
              under the unified queue this is the pinned high-water mark.
              [None] when the system has no precedence space (pure 2PL,
              MVTO). *)
      at : float;
    }
  | Lock_promoted of {
      (* a pre-scheduled grant became normal: every conflicting earlier
         grant is gone (semi-lock protocol, section 4.2 rule 3) *)
      txn : int;
      item : int;
      site : int;
      at : float;
    }
  | Lock_transformed of {
      (* rule 4: a T/O transaction finished executing and turned this lock
         into a semi-lock; writes are implemented at this point *)
      txn : int;
      item : int;
      site : int;
      mode : Ccdb_model.Lock.mode;
      at : float;
    }
  | Lock_released of {
      txn : int;
      protocol : Ccdb_model.Protocol.t;
      op : Ccdb_model.Op.kind;
      item : int;
      site : int;
      granted_at : float;
      at : float;
      aborted : bool;
      ts : int option; (** entry's precedence timestamp at release *)
    }
  | Request_withdrawn of {
      (* a never-granted request left the queue (issuer restarted) *)
      txn : int;
      item : int;
      site : int;
      at : float;
    }
  | Ts_updated of {
      (* PA phase 2: the queue re-positioned this entry at the agreed TS';
         a grant already held at the old position is revoked *)
      txn : int;
      item : int;
      site : int;
      ts : int;
      revoked : bool;
      at : float;
    }
  | Deadlock_detected of {
      (* a detector observed a wait-for cycle; [victim], when chosen, is the
         transaction aborted to break it.  Edge-chasing detectors know only
         the initiating transaction, so [cycle] may be a singleton. *)
      cycle : int list;
      victim : int option;
      at : float;
    }
  | Txn_committed of {
      txn : Ccdb_model.Txn.t;
      submitted_at : float;
      executed_at : float;  (** end of the transaction's last compute phase *)
      restarts : int;
    }
  | Txn_restarted of {
      txn : Ccdb_model.Txn.t;
      reason : restart_reason;
      at : float;
    }
  | Pa_backoff of { txn : int; op : Ccdb_model.Op.kind; at : float }
      (** a PA request received a back-off timestamp *)
  | Site_crashed of { site : int; at : float }
      (** fault injection: the site entered a crash window *)
  | Site_recovered of { site : int; at : float }
      (** fault injection: the site's crash window ended *)
  | Request_dropped of { txn : int; item : int; site : int; at : float }
      (** fail-stop wipe erased this volatile queue entry — a request whose
          admission was never promised to the issuer (never granted, not
          force-logged); the issuer is restarted by the crash handlers *)
  | Site_wiped of { site : int; dropped : int; preserved : int; at : float }
      (** summary of one fail-stop wipe: [dropped] volatile entries erased,
          [preserved] entries kept because the WAL had promised them *)
  | Wal_replayed of {
      site : int;
      records : int;    (** stable-log records scanned *)
      reacquired : int; (** live grants/semi-locks restored *)
      in_doubt : int;   (** voted commit rounds awaiting a decision *)
      at : float;
    }  (** recovery replayed the site's write-ahead log before rejoining *)
  | Prepared of { txn : int; site : int; round : int; at : float }
      (** commit participant force-logged its prewrites and voted yes *)
  | Decision_logged of {
      txn : int;
      site : int;
      round : int;
      commit : bool;
      at : float;
    }  (** commit participant learned and force-logged the round's outcome *)
  | Acceptor_promised of {
      txn : int;
      site : int;
      round : int;
      ballot : int;
      at : float;
    }
      (** Paxos Commit acceptor force-logged a phase-1 promise: it will
          ignore ballots below [ballot] for every instance of this round *)
  | Acceptor_accepted of {
      txn : int;
      site : int;
      round : int;
      instance : int; (** the participant site whose vote the instance decides *)
      ballot : int;
      prepared : bool;
      at : float;
    }
      (** Paxos Commit acceptor force-logged a phase-2 accept for one
          instance; the analyzer checks it never undercuts a promise
          ([consensus.ballot-regression]) *)
  | Op_implemented of {
      txn : int;
      op : Ccdb_model.Op.kind;
      item : int;
      site : int;
      at : float;
    }
      (** a physical operation landed in a copy's implementation log
          (mirrors {!Ccdb_storage.Store.on_append}); the streaming analyzer
          grows its conflict graph from these instead of re-scanning the
          store after the run *)
  | Reads_discarded of {
      txn : int;
      item : int;
      site : int;
      removed : int;
      at : float;
    }
      (** {!Ccdb_storage.Store.discard_reads} withdrew [removed] read
          entries of [txn] from the copy's log (basic T/O restart after an
          elsewhere-rejection); only emitted when [removed > 0] *)

(** Aggregate counters maintained from the event stream. *)
type counters = {
  mutable committed : int;
  mutable restarts : int;
  mutable rejections : int;  (** T/O rejects (one per restart caused) *)
  mutable deadlock_aborts : int;
  mutable prevention_aborts : int;
      (** wound-wait / wait-die kills (see {!Two_pl_system.prevention}) *)
  mutable backoffs : int;    (** PA per-request back-off events *)
  mutable site_aborts : int; (** [Site_failure] restarts (crash cleanup) *)
  mutable wiped_entries : int;
      (** volatile queue entries erased by fail-stop wipes (sum of the
          [dropped] counts over all {!event.Site_wiped} events) *)
}

type t

val create :
  ?seed:int ->
  ?faults:Ccdb_sim.Fault_plan.t ->
  ?commit:commit_protocol ->
  net_config:Ccdb_sim.Net.config ->
  catalog:Ccdb_storage.Catalog.t ->
  unit ->
  t
(** Builds engine + network + store.  The network has the catalog's sites
    and [net_config]'s latencies.  [seed] defaults to 42.  When [faults]
    is given it is installed on the network ({!Ccdb_sim.Net.install_faults})
    and {!event.Site_crashed} / {!event.Site_recovered} events are emitted
    at each crash boundary.  Without [faults] the network is the
    fault-free one.

    If the plan additionally says [wipe=true] the runtime is {e durable}:
    lock-point events are forced to the per-site {!Ccdb_storage.Wal} as they
    are emitted, crashes wipe the volatile queue state registered with
    {!on_site_wipe}, and each recovery replays the site's log
    ({!Ccdb_sim.Recovery}, 0.05 time units per record) before the
    {!on_wal_replay} handlers rebuild commit state.
    [commit] (default [Paxos { f = 0 }], two-phase commit) selects the
    atomic-commitment protocol the durable paths build
    ({!commit_protocol}).
    @raise Invalid_argument if a Paxos [commit] has [f < 0] or
    needs more acceptor sites than exist, or if the plan is rejected by
    {!Ccdb_sim.Net.install_faults}. *)

val engine : t -> Ccdb_sim.Engine.t
val net : t -> Ccdb_sim.Net.t
val rng : t -> Ccdb_util.Rng.t
val catalog : t -> Ccdb_storage.Catalog.t
val store : t -> Ccdb_storage.Store.t
val ts_source : t -> Ccdb_model.Timestamp.Source.t

val now : t -> float

val subscribe : t -> (event -> unit) -> unit
(** Registers an event listener, called synchronously on [emit]: for
    listeners whose state the run itself reads back (the STL estimator)
    and for probes that must see each event as it happens. *)

val has_consumer : t -> bool
(** Whether an emitted event reaches anything besides the runtime's own
    counters: the WAL of a {!durable} runtime, a {!subscribe}d listener
    or an {!observe}r.  Systems build the lock-point events
    ({!event.Lock_requested}, {!event.Lock_granted},
    {!event.Lock_promoted}, {!event.Lock_transformed},
    {!event.Lock_released}, {!event.Request_withdrawn},
    {!event.Ts_updated}) and the runtime builds {!event.Op_implemented}
    and {!event.Reads_discarded} only while it holds, so a plain run
    allocates none of them.  The events that move {!counters} or the
    system-time summary are always emitted. *)

val observe : t -> (event -> unit) -> unit
(** Registers an observer: it gets every event emitted from now on, in
    emission order, but not necessarily on the emitting domain.  While
    {!quiesce} drives the engine, observers run on one worker domain, fed
    through a bounded single-producer/single-consumer ring
    ({!Ccdb_util.Pipeline}); the worker starts at the first event, and
    by the time the call returns or raises every event has been observed
    and the worker joined.  Observers run inline, exactly like
    {!subscribe}d listeners, for events emitted outside that call, on a
    single-core host, inside a {!Ccdb_util.Pool} task, and whenever
    another domain would exceed [Domain.recommended_domain_count ()]
    ({!Ccdb_util.Pool.reserve_domain}).

    So an observer may read only the event and its own state until the
    run returns, must not emit, and must not be read by the simulation.
    An exception it raises surfaces from the {!quiesce} call after the
    worker is joined, in preference to one the run raised. *)

val emit : t -> event -> unit
(** Systems publish their events here; counters and the system-time
    summary are updated automatically, listeners are called, then
    observers are fed. *)

val counters : t -> counters

(** {2 System time}

    The paper's yardstick S is [executed_at - submitted_at] of a committed
    transaction.  {!emit} folds each {!event.Txn_committed} into a
    fixed-size summary, in emission order, and keeps nothing per
    transaction.  The accessors return the runtime's own accumulators:
    read them, do not add to them. *)

val system_time : t -> Ccdb_util.Stats.t
(** Mean S over every commit. *)

val protocol_system_time : t -> Ccdb_model.Protocol.t -> Ccdb_util.Stats.t
(** Mean S over the commits of transactions that ran under one protocol. *)

val system_time_histogram : t -> Ccdb_util.Histogram.t
(** Every commit's S, bucketed for percentiles. *)

val last_executed : t -> float
(** The latest [executed_at] of any commit; [0.] before the first. *)

exception Event_budget_exhausted of {
  fired : int;    (** engine events fired so far *)
  pending : int;  (** engine events still queued *)
  clock : float;  (** the simulated time reached *)
}
(** Raised by {!quiesce} when [max_events] fire and events remain. *)

val quiesce : ?max_events:int -> t -> unit
(** Runs until no events remain ([max_events] guards against livelock;
    default 10_000_000).  Observers have seen every event when it returns
    or raises (see {!observe}).
    @raise Event_budget_exhausted if the budget is exhausted, after the
    observers have seen every event emitted. *)

(** {2 Fault handling}

    These are no-ops unless the runtime was created with [~faults]. *)

val on_site_crash : t -> (int -> unit) -> unit
(** Registers a handler called with the site id at each crash instant —
    systems use this to abort transactions that depend on the dead site.
    Handlers run after the {!event.Site_crashed} event is emitted. *)

(** {2 Durability}

    Active only when the fault plan says [wipe=true]; all of it is inert —
    and the WAL stays empty — otherwise, so a fault-free run is byte-for-byte
    identical to one on a runtime without any of this machinery. *)

val durable : t -> bool
(** Whether crashes are fail-stop (fault plan installed with [wipe=true]). *)

val commit_protocol : t -> commit_protocol
(** The atomic-commitment protocol selected at {!create} (meaningful only
    when {!durable}; [Commit] reads it). *)

val wal : t -> Ccdb_storage.Wal.t
(** The per-site write-ahead log (always present; only written when
    {!durable}). *)

val recovery_stats : t -> Ccdb_sim.Recovery.stats option
(** Replay counters ([None] unless {!durable}). *)

val on_site_wipe : t -> (int -> int * int) -> unit
(** Registers a wipe handler called with the site id at each fail-stop crash
    instant, after {!event.Site_crashed} and before the {!on_site_crash}
    handlers.  The handler erases its owner's volatile state at that site and
    returns [(dropped, preserved)] entry counts; the runtime sums them into
    one {!event.Site_wiped}.  Handlers emit {!event.Request_dropped} for each
    erased entry themselves. *)

val on_wal_replay : t -> (int -> Ccdb_storage.Wal.replay -> unit) -> unit
(** Registers a handler called with the site id and the site's
    {!Ccdb_storage.Wal.replay} after recovery has replayed the site's WAL
    (and emitted {!event.Wal_replayed}); the commit layer uses this to
    rebuild in-doubt participants, decided rounds and its decider's
    state. *)

val restart_backoff : t -> site:int -> base:float -> attempt:int -> float
(** Resubmission delay for the [attempt]-th restart of a transaction
    (0-based counting as the systems do: the value of their restart counter
    at scheduling time); [site] is the transaction's home site.  Exactly
    [base] on a fault-free runtime; under faults, capped exponential
    backoff [min 800 (base * 2^attempt)] scaled by a seeded jitter
    factor in [\[0.5, 1.0)] so synchronized crash-abort restart storms
    spread out.  The jitter is drawn from a per-[site] stream, so the draws
    a site sees depend only on its own restart history — never on how
    events interleave across sites.
    @raise Invalid_argument on an out-of-range [site] under faults. *)

(** Workload insights collector: per-fingerprint latency histograms,
    contention counters, and windowed time series, fed entirely by the
    runtime's self-describing event stream.

    Attach one to a fresh runtime (the {!Ccdb_harness.Driver.run}
    [observer] hook, or on a runtime of your own) and
    it aggregates as the simulation runs — no instrumentation point inside
    any protocol, no trace retained.  Everything it knows comes from the
    events every system already emits: [Lock_requested] outcomes and
    [Lock_granted] timing give contention, [Txn_committed] gives latencies
    and routing, [Txn_restarted] and [Deadlock_detected] give restart and
    conflict counts.

    The collector is the observability half of the measured-λ loop; the
    estimation half ({!Ccdb_stl.Estimator} with a [Windowed] source) feeds
    {!Core.Dynamic_cc}.  Both read the same events, so the insights
    document shows exactly the evidence the adaptive selector acted on.
    See OBSERVABILITY.md for the operator guide and the JSON schema
    field-by-field. *)

type t

val schema_version : string
(** ["ccdb-insights/1"] — bumped whenever the document shape changes. *)

val attach : ?window:float -> Ccdb_protocols.Runtime.t -> t
(** Observes the runtime's event stream ({!Ccdb_protocols.Runtime.observe})
    from now on; read the collector only between runs.  [window]
    (default 200. simulated time units) is the width of the time-series
    buckets; events land in window [i] when their timestamp falls in
    [\[i*window, (i+1)*window)] measured from attach time.
    @raise Invalid_argument if [window <= 0.]. *)

type class_stats = {
  fingerprint : Fingerprint.t;
  committed : int;          (** commits of this shape under this protocol *)
  restarts : int;           (** restarts suffered by transactions of this
                                fingerprint (every attempt counted) *)
  latency : Ccdb_util.Histogram.t;
      (** system time (commit - submission) of each committed
          transaction *)
}

val fingerprints : t -> class_stats list
(** Every fingerprint observed so far, in {!Fingerprint.compare} order
    (deterministic). *)

type contention = {
  c_protocol : Ccdb_model.Protocol.t;
  c_item : int;             (** logical data item *)
  waits : int;              (** grants that waited in the queue ([> 0]
                                delay between request and grant) *)
  wait_time : float;        (** total queue-wait time behind those grants *)
  rejections : int;         (** T/O requests refused outright
                                ([Req_rejected]) *)
  backoffs : int;           (** PA requests admitted blocked with a
                                proposed TS' ([Req_backoff]) *)
}

val contention : t -> contention list
(** Contention counters keyed by (protocol, item), hottest first:
    descending by [rejections + backoffs], then by [wait_time], then by
    (protocol, item) — a deterministic total order.  Rows where every
    counter is zero are omitted. *)

type window = {
  index : int;
  w_start : float;          (** window start, absolute simulated time *)
  w_end : float;
  w_committed : int;
  w_restarts : int;
  w_conflicts : int;        (** rejections + back-offs + detected deadlock
                                cycles whose events fell in this window *)
  w_grants_read : int;
  w_grants_write : int;
  w_latency_sum : float;    (** sum of system times of this window's
                                commits; mean = sum / committed *)
  w_by_protocol : (Ccdb_model.Protocol.t * int) list;
      (** commits per executed protocol, in {!Ccdb_model.Protocol.all}
          order — the mid-run protocol switch of an adaptive run is read
          directly off this column *)
}

val windows : t -> window list
(** The full series from window 0 through the last window containing an
    event, with empty windows materialised (all-zero rows), oldest first. *)

val to_json : t -> Ccdb_util.Json.t
(** The versioned insights document ([schema = ccdb-insights/1]):
    run totals, the fingerprint table (with embedded latency histograms),
    the contention table, and the windowed series.  Deterministic for a
    given (config, seed) run: orderings are total and nothing samples
    wall-clock time.  See OBSERVABILITY.md for every field. *)

val validate : Ccdb_util.Json.t -> (unit, string) result
(** Structural schema check of an insights document: version string,
    required fields, field types, and histogram well-formedness.  Used by
    [ccdb_cli run --insights] on every document it builds and by the test
    suite; [Error] names the offending field. *)

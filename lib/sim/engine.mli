(** Deterministic sharded discrete-event simulation engine.

    Time is a [float] in abstract milliseconds.  Events scheduled for the
    same instant fire in schedule order (FIFO tie-break on a globally unique
    sequence number), which makes every run fully deterministic given the
    same sequence of [schedule] calls.

    Sites are partitioned into [shards] shards ([create ?shards ?shard_of]);
    each shard owns a private event heap, and cross-shard messages travel
    through per-(src, dst) timestamped channels settled at conservative
    lookahead barriers.  Events fire in exact global (time, seq) order by a
    deterministic k-way merge across the shard heaps, so simulation results
    are byte-identical for any shard count, including the single-heap
    [shards = 1] fast path.  See DESIGN.md §14. *)

type t
(** A mutable, possibly sharded event queue with a clock; one per
    simulation. *)

type time = float
(** Simulation time in abstract milliseconds. *)

type handle
(** Handle for cancelling a scheduled event. *)

val create : ?shards:int -> ?shard_of:(int -> int) -> ?lookahead:float -> unit -> t
(** A fresh engine: empty queues, clock at 0.  [shards] (default 1)
    partitions events across that many shard heaps; [shard_of] maps a site
    id to its owning shard (default [site mod shards]; the result is
    reduced modulo [shards] either way).  [lookahead] is the minimum
    cross-site network latency: a tagged schedule crossing shards at least
    [lookahead] in the future is routed through a cross-shard channel and
    settled at the next synchronization barrier.
    @raise Invalid_argument if [shards < 1], or if [shards > 1] with a
    non-positive [lookahead] (conservative synchronization needs strictly
    positive lookahead to make progress). *)

val now : t -> time
(** Current simulation time (0. before any event has fired). *)

val shards : t -> int
(** Number of shards (1 for an unsharded engine). *)

val schedule : ?site:int -> t -> after:time -> (unit -> unit) -> handle
(** [schedule t ~after f] fires [f] at [now t +. after].  [after] must be
    [>= 0.]; negative and NaN delays raise [Invalid_argument].  [?site] names the
    site whose shard should execute the event (network deliveries, crash
    windows, per-site timers); untagged events inherit the scheduling
    event's shard, so purely local follow-ups never cross shards. *)

val schedule_at : ?site:int -> t -> at:time -> (unit -> unit) -> handle
(** Absolute-time variant; [at] must be [>= now t] (a NaN [at] raises
    [Invalid_argument] too). *)

val cancel : t -> handle -> bool
(** [cancel t h] prevents the event from firing; returns [false] if it
    already fired or was cancelled.  Works on heap-resident and in-channel
    events alike. *)

val run : ?until:time -> ?max_events:int -> t -> unit
(** Processes events in exact global (time, seq) order until every queue is
    empty, [until] is passed (events strictly after [until] stay queued;
    [now] is clamped to [until]), or [max_events] have fired.  With
    [shards > 1] the run proceeds in conservative synchronization windows:
    each window opens at the global minimum event time, fires every event
    strictly before [barrier = t_min +. lookahead], then settles the
    cross-shard channels.  Channels are settled on every exit path, so no
    event is stranded between [run] calls. *)

val step : t -> bool
(** Fires the single next event (the global (time, seq) minimum); [false]
    if every queue was empty. *)

val pending : t -> int
(** Number of queued events (heap-resident plus in-channel). *)

val processed : t -> int
(** Number of events fired so far. *)

(** Synchronization counters of a sharded run.  Deterministic for a given
    (engine configuration, schedule sequence) pair — suitable for
    experiment tables. *)
type sync_stats = {
  shards : int;
  barriers : int;  (** synchronization windows opened (0 when [shards = 1]) *)
  cross_shard : int;  (** events routed through cross-shard channels *)
  local_fallbacks : int;
      (** tagged schedules that undercut the barrier and stayed on the
          executing shard (see DESIGN.md §14) *)
  fired_by_shard : int array;  (** events executed per shard *)
}

val sync_stats : t -> sync_stats

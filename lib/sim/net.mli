(** Simulated network between database sites.

    Messages between distinct sites experience [base_delay] plus uniform
    jitter; messages a site sends to itself experience [local_delay] (the
    cost of the local request path).  Delivery between any ordered pair of
    sites is FIFO, matching the paper's implicit assumption that requests
    from a request issuer reach a data queue in order.  Every send is counted
    by message kind so experiments can report communication cost (the paper's
    stated weakness of PA).

    With a {!Fault_plan} installed (see {!install_faults}), the same [send]
    interface runs over a reliable transport layered on lossy links: each
    message gets a per-channel sequence number, is retransmitted on a capped
    exponential-backoff timer until acknowledged, however long that takes,
    and the receiver deduplicates and releases messages in sequence order.
    No message is ever abandoned: every link delivers with positive
    probability ({!Fault_plan.link} has [drop < 1]) and every crash window
    ends, so each message arrives.  Protocol code keeps the exactly-once
    FIFO abstraction; faults surface only as extra latency, extra
    (transport-level) traffic, and site-crash windows during which a site
    is unreachable.  Acks and timers become engine events only
    when they can change state: an ack that will land before the armed
    timer is due, on a live sender, cancels the timer when its copy
    arrives, and a timer enters the heap only once no such ack can settle
    it.  A copy the network delivers thus costs one event, and every run
    fires the same events, in the same order, as a transport that
    schedules each ack and timer, less the acks that would only have
    cancelled a timer or done nothing.  DESIGN.md §9 documents the full
    model. *)

type t
(** A network instance, bound to one {!Engine.t}. *)

type config = {
  sites : int;           (** number of sites, numbered [0 .. sites-1] *)
  base_delay : float;    (** fixed one-way latency between distinct sites *)
  jitter : float;        (** uniform extra latency in [0, jitter) *)
  local_delay : float;   (** latency when [src = dst] *)
}
(** Static topology and latency parameters. *)

val default_config : sites:int -> config
(** 10.0 base delay, 2.0 jitter, 0.1 local delay. *)

val create : Engine.t -> Ccdb_util.Rng.t -> config -> t
(** [create engine rng config] builds a fault-free network; [rng] drives the
    per-message jitter.  @raise Invalid_argument if [config.sites <= 0]. *)

val sites : t -> int
(** Number of sites in the network. *)

val send : t -> src:int -> dst:int -> kind:string -> (unit -> unit) -> unit
(** [send t ~src ~dst ~kind deliver] schedules [deliver] after the simulated
    transit delay and counts one message of [kind].  With a fault plan
    installed, the message travels the reliable transport instead: [deliver]
    runs exactly once, in per-channel FIFO order, after however many
    retransmissions it takes (see {!retry}).
    @raise Invalid_argument on an out-of-range site. *)

val messages_sent : t -> int
(** Total logical messages sent so far ({!send} calls; transport-level
    retransmissions, duplicates and acks are {e not} counted here — see
    {!fault_stats}). *)

val messages_by_kind : t -> (string * int) list
(** Per-kind counts of logical messages, sorted by kind name. *)

(** {2 Fault injection}

    A {!Fault_plan.t} describes per-link loss/duplication/delay
    distributions and a site crash schedule.  Installing one replaces the
    lossless delivery path with the reliable transport described above.
    At the network level a crash suppresses every transmission from and
    delivery to the site for the crash window; senders keep retransmitting
    and the suppressed traffic flows after recovery.  Whether the site's
    local state also dies is the plan's [wipe] flag: fail-pause (default)
    keeps it, fail-stop ([wipe=true]) erases volatile state at the crash
    instant — {!on_crash}/{!on_recover} listeners (run in registration
    order) let {!Recovery} wipe and later rebuild it from the write-ahead
    log. *)

type retry = {
  rto : float;         (** initial retransmission timeout *)
  rto_backoff : float; (** multiplicative backoff per retry, [>= 1] *)
  rto_cap : float;     (** upper bound on the timeout, [>= rto] *)
}
(** Retransmission schedule of the reliable transport.  The [k]-th
    retransmission fires [min (rto * rto_backoff^k) rto_cap] after the
    [k]-th transmission; retransmissions go on until an ack arrives. *)

val default_retry : retry
(** rto 60, backoff 2.0, cap 480. *)

val install_faults : t -> ?retry:retry -> Fault_plan.t -> unit
(** Installs a fault plan.  Must be called before any traffic is sent.
    Crash and recovery events are scheduled immediately on the engine.
    @raise Invalid_argument if a plan is already installed, traffic has
    flowed, the plan names a site outside [0 .. sites-1], or [retry] is
    malformed. *)

val fault_plan : t -> Fault_plan.t option
(** The installed plan, if any. *)

type fault_stats = {
  transmissions : int;  (** physical copies put on the wire *)
  dropped : int;        (** copies lost to link loss *)
  duplicated : int;     (** extra copies created by link duplication *)
  retransmitted : int;  (** timer-driven retransmissions *)
  suppressed : int;     (** transmissions/deliveries blocked by a crash *)
  acks_lost : int;      (** acknowledgements lost on the reverse link *)
  crashes : int;        (** crash windows entered so far *)
  recoveries : int;     (** crash windows exited so far *)
}
(** Transport-level counters, disjoint from the logical counters of
    {!messages_sent}. *)

val fault_stats : t -> fault_stats option
(** Snapshot of the transport counters ([None] without a fault plan). *)

val is_crashed : t -> int -> bool
(** Whether the site is currently inside a crash window (always [false]
    without a fault plan).  @raise Invalid_argument on an out-of-range
    site. *)

val on_crash : t -> (int -> unit) -> unit
(** Registers a listener called with the site id at each crash instant
    (in registration order).  No-op without a fault plan. *)

val on_recover : t -> (int -> unit) -> unit
(** Registers a listener called with the site id at each recovery instant
    (in registration order).  No-op without a fault plan. *)

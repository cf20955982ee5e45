(** Seeded fault plans for the simulated network.

    A fault plan is a pure description of everything that will go wrong
    during a run: per-link message loss, duplication and extra-delay
    distributions, plus a schedule of site crashes with their recovery
    times.  The plan carries its own RNG seed so a faulted run is exactly
    as deterministic as a fault-free one — same plan, same seed, same
    failure pattern.

    Plans are interpreted by {!Net.install_faults}: the network layers a
    retransmitting, deduplicating, order-restoring transport over the lossy
    links it describes (see DESIGN.md §9 for the full fault model), and
    crash windows make a site unreachable for their duration.  By default
    crashes are fail-pause (the site's local state survives, its network is
    dead); with [wipe=true] they are fail-stop — volatile queue-manager
    state is erased at the crash instant and the site recovers by replaying
    its write-ahead log (DESIGN.md §11).

    The textual grammar accepted by {!of_string} (and printed by
    {!to_string}) is a comma-separated token list:

    {v
    drop=0.1,dup=0.02,delay=0.05x20,crash=1@400+300,seed=7
    link=0>2/drop=0.5,crash=3@900+250,wipe=true
    v}

    - [drop=F] — default per-transmission loss probability, in [\[0, 1)]
    - [dup=F] — default duplication probability
    - [delay=PxM] — with probability [P], add [exponential(M)] extra delay
    - [crash=S@T+D] — site [S] crashes at time [T], recovers at [T + D]
    - [crash=coordinator@T+D] — role-targeted: the commit coordinator's
      home site crashes at [T].  Roles are symbolic until the harness pins
      them to concrete sites with {!resolve}.
    - [crash=acceptor:K@T+D] — role-targeted: the [K]-th Paxos acceptor
      crashes at [T] (with one acceptor per transaction, at its home site,
      that acceptor's crash is [crash=coordinator])
    - [link=SRC>DST/…] — override [drop]/[dup]/[delay] for one directed link
    - [wipe=B] — [true] for fail-stop crashes, [false] (default) fail-pause
    - [seed=N] — seed of the plan's private fault RNG *)

type link = {
  drop : float;
      (** probability a transmission is lost, in [\[0, 1)]: the transport
          retransmits until a copy gets through, so every link must
          deliver with positive probability *)
  duplicate : float;   (** probability a second copy is delivered, in [0, 1] *)
  delay_prob : float;  (** probability of extra delay, in [0, 1] *)
  delay_mean : float;  (** mean of the exponential extra delay, [>= 0] *)
}
(** Fault distribution of one directed link (or the default for all links).
    Each physical transmission draws independently from these. *)

type crash = {
  site : int;          (** the site that fails *)
  at : float;          (** crash instant, [>= 0] *)
  recover_at : float;  (** recovery instant, [> at] *)
}
(** One outage: the site is unreachable in [\[at, recover_at)].  Whether its
    volatile state also dies is the plan-wide {!wipe} flag. *)

type role =
  | Coordinator      (** the commit coordinator's home site *)
  | Acceptor of int  (** the [k]-th member of the Paxos acceptor set *)
(** A symbolic crash target.  Which concrete site plays a role depends on
    the workload (the coordinator is the home site of the first arriving
    transaction) and the commit protocol (acceptor [k] is the [k]-th site
    of the acceptor set), so plans carry roles unresolved and the harness
    pins them with {!resolve} once the workload is known. *)

type role_crash = {
  role : role;           (** who crashes *)
  r_at : float;          (** crash instant, [>= 0] *)
  r_recover_at : float;  (** recovery instant, [> r_at] *)
}
(** One role-targeted outage, resolved to a {!crash} by {!resolve}. *)

type t
(** An immutable fault plan. *)

val reliable_link : link
(** A link with no faults: all probabilities 0. *)

val none : t
(** The empty plan: reliable links, no crashes, seed 0.  Installing it
    still routes traffic through the reliable transport (sequence numbers,
    acks, retransmission timers) — useful for testing the transport itself. *)

val make :
  ?seed:int ->
  ?default_link:link ->
  ?links:((int * int) * link) list ->
  ?crashes:crash list ->
  ?role_crashes:role_crash list ->
  ?wipe:bool ->
  unit ->
  t
(** [make ()] builds a validated plan.  [links] lists per-[(src, dst)]
    overrides of [default_link] (default: no overrides).  [seed] defaults
    to 0, [default_link] to {!reliable_link}, [crashes] and [role_crashes]
    to [[]], [wipe] to [false] (fail-pause).
    @raise Invalid_argument if a [drop] is outside [\[0, 1)], another
    probability is outside [0, 1], a delay mean is negative, a crash
    window is empty or starts before time 0, two crash windows of the
    same site (or same role) overlap, an acceptor index is negative, or a
    link appears twice. *)

val seed : t -> int
(** The plan's fault-RNG seed. *)

val default_link : t -> link
(** The fault distribution used for links without an override. *)

val links : t -> ((int * int) * link) list
(** The per-link overrides, sorted by [(src, dst)]. *)

val crashes : t -> crash list
(** The crash schedule, sorted by crash time. *)

val role_crashes : t -> role_crash list
(** The unresolved role-targeted crash schedule, sorted by crash time.
    {!Net.install_faults} rejects plans whose role crashes have not been
    folded into concrete site crashes with {!resolve}. *)

val resolve : t -> coordinator:int -> acceptor:(int -> int) -> t
(** [resolve t ~coordinator ~acceptor] pins every role crash to a concrete
    site — [Coordinator] to [coordinator], [Acceptor k] to [acceptor k] —
    and folds them into the ordinary crash schedule, leaving
    [role_crashes] empty.  A plan with no role crashes is returned
    unchanged.  Which site a role lands on depends on the workload, so a
    resolved window that overlaps another window of the same site — an
    explicit one, or another role's that resolved there too — is merged
    with it into their union: the site is down from the earlier crash to
    the later recovery.
    @raise Invalid_argument if [coordinator] or an [acceptor k] is a
    negative site (the {!make} validation re-runs). *)

val wipe : t -> bool
(** Whether crashes are fail-stop: at each crash instant the site's volatile
    queue-manager state is wiped and recovery replays the write-ahead log.
    [false] means the original fail-pause semantics. *)

val link_for : t -> src:int -> dst:int -> link
(** The fault distribution of the directed link [src -> dst]. *)

val is_crashed : t -> site:int -> at:float -> bool
(** Whether [site] is inside one of its crash windows at time [at].
    Windows are half-open, as {!Net} applies them: the site is down at
    its crash instant and up again at its recovery instant. *)

val max_site : t -> int
(** The largest site index the plan mentions ([-1] if it mentions none);
    {!Net.install_faults} rejects plans that name out-of-range sites. *)

val of_string : string -> (t, string) result
(** Parses the grammar documented above.  Whitespace around tokens is
    ignored.  An unknown or malformed token yields [Error] naming the
    offending token and its 0-based character position in the input, e.g.
    ["fault plan: bad seed \"x\" in token \"seed=x\" at position 9"];
    plan-level validation failures (overlapping crash windows, …) yield the
    {!make} message. *)

val to_string : t -> string
(** Canonical textual form; [of_string (to_string p)] round-trips. *)

val pp : Format.formatter -> t -> unit
(** Pretty-printer ({!to_string} on one line). *)

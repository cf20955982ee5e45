(** Atomic commitment for the durable paths.

    Used only on a {e durable} runtime (fault plan with [wipe=true]): the
    lock-based systems (pure 2PL, pure PA, and the unified engine) route
    the post-execution implementation of a transaction through this
    module instead of sending bare release messages, so that a site crash
    can never implement a transaction at one copy and lose it at another
    (the analyzer's [thm.partial-commit]).

    The protocol is Paxos Commit (Gray & Lamport) with the fault
    tolerance [f] of {!Runtime.commit_protocol}; two-phase commit is its
    [f = 0] case:

    - The {e client} — the terminal that issued the transaction, outside
      the failure domain — hands {!commit} the per-site action lists and
      re-drives the round if no decision arrives.
    - Each {e participant} force-logs the round's {!Ccdb_storage.Wal}
      [Prewrite] records and a [Vote] before voting yes, then re-inquires
      on a timer until it learns the outcome.  On commit it force-logs the
      [Decision], applies its actions exactly once ({!hooks.apply}), logs
      [Applied] and acknowledges to the home site; duplicate decisions
      re-acknowledge without re-applying.
    - Each participant's vote is one single-decree Paxos instance over
      the [2f+1] acceptors, so the round decides as long as [f+1]
      acceptors are up.  Participants send their yes vote as a ballot-0
      phase-2a straight to the acceptors, which force-log promises and
      accepts ([Acceptor_promise]/[Acceptor_accept]) and take over
      leadership on a timer, whose delay doubles with each attempt, if
      the outcome stays unknown.  The quorum accept is the commit point;
      the client re-drives the same round, which advances only after a
      learned abort.
    - At [f = 0] the one acceptor is the transaction's home site, the
      same process as the ballot-0 leader (2PC's coordinator): its
      phase-2b and its copy of the decision are local steps, so a
      fault-free round sends one begin, then one prepare, one vote, one
      decision and one ack per participant.  A round open when the home
      site fail-stops waits for its recovery: the replayed acceptor
      finishes it by takeover, committing it if every vote was accepted.
    - At [f >= 1] the acceptors are sites [0..2f].  See DESIGN.md §15.

    An aborted round keeps the participants' locks: post-execution the
    transaction never aborts, only the round is retried, so PA
    transactions stay restart-free (Corollary 1).  Crash wipes erase the
    volatile state; recovery rebuilds in-doubt participants, decided
    rounds and the acceptors' promises and accepts from the WAL
    ({!Runtime.on_wal_replay}), re-inquires immediately and re-arms the
    acceptors' takeover clocks. *)

type hooks = {
  apply : txn:int -> site:int -> Ccdb_storage.Wal.action list -> unit;
      (** implement the committed actions at one participant site (release
          locks, write the store, emit events); called exactly once per
          (txn, site) *)
  commit_point : txn:int -> unit;
      (** the transaction's global outcome is commit; called exactly once
          per txn — {!Lifecycle.commit_engine} runs the system's commit
          step here *)
}

type t

val create : Runtime.t -> hooks -> t
(** Builds Paxos Commit with the [f] of [Runtime.commit_protocol rt] and
    registers the wipe and WAL-replay handlers on the runtime.
    @raise Invalid_argument if the runtime is not {!Runtime.durable}. *)

val participants :
  site:('a -> int) ->
  action:('a -> Ccdb_storage.Wal.action) ->
  'a list ->
  (int * Ccdb_storage.Wal.action list) list
(** Groups a transaction's copies into the [participants] of {!commit}:
    one entry per site, sites ascending, each site's actions in list
    order.  The caller builds each copy's action. *)

val commit :
  t ->
  txn:int ->
  home:int ->
  participants:(int * Ccdb_storage.Wal.action list) list ->
  unit
(** Starts round 0 for a fully executed transaction across
    [participants] (site, deferred actions; under Paxos, instance [i] is
    the [i]-th element) with the client terminal at [home].
    @raise Invalid_argument on a duplicate [txn]. *)
